package qkern

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/sparse"
)

func sparseFrom(m *mat.Matrix, bias []float64) *sparse.Layer {
	return sparse.FromDense(m, bias)
}

func randomMatrix(rng *mat.RNG, rows, cols int, density float64) *mat.Matrix {
	m := mat.NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestParamsSymmetric(t *testing.T) {
	p := ParamsOf([]float64{-2, 0.5, 1})
	if p.ZeroPoint != 0 {
		t.Fatalf("ZeroPoint = %d, want 0 (symmetric)", p.ZeroPoint)
	}
	if want := 2.0 / QMax; p.Scale != want {
		t.Fatalf("Scale = %v, want %v", p.Scale, want)
	}
	q := make([]int8, 3)
	p.Quantize(q, []float64{-2, 0, 2})
	if q[0] != -QMax || q[1] != 0 || q[2] != QMax {
		t.Fatalf("codes = %v, want [-127 0 127]", q)
	}
	if ParamsOf([]float64{0, 0}).Scale != 0 {
		t.Fatal("all-zero tensor must get Scale 0")
	}
}

// TestActParamsAsymmetric pins the activation grid's contract: the
// range [min(x,0), max(x,0)] maps onto the full code range, the zero
// point stays within [-ActQMax, ActQMax], and real 0.0 round-trips
// exactly (it is a grid point by construction).
func TestActParamsAsymmetric(t *testing.T) {
	cases := [][]float64{
		{0.1, 2.5, 0.7},        // strictly positive (post-pooling shape)
		{-3, -0.2, -1},         // strictly negative
		{-1, 0, 4},             // two-sided
		{-2, 2},                // symmetric range degenerates to zp 0
		{0, 1e-12, 5e9, -1e-9}, // extreme dynamic range
	}
	for _, x := range cases {
		p := ActParamsOf(x)
		if p.Scale <= 0 {
			t.Fatalf("ActParamsOf(%v).Scale = %v, want > 0", x, p.Scale)
		}
		if p.ZeroPoint > ActQMax || p.ZeroPoint < -ActQMax {
			t.Fatalf("ActParamsOf(%v): zero point %d outside ±%d", x, p.ZeroPoint, ActQMax)
		}
		if v := p.DequantizeAct(p.ZeroPoint); v != 0 {
			t.Fatalf("ActParamsOf(%v): zero dequantizes to %v, want exactly 0", x, v)
		}
		q := make([]int32, len(x))
		p.QuantizeAct(q, x)
		for i, v := range x {
			// Rounding the zero point can shift the grid half a step,
			// so allow a full step of round-trip error.
			if d := math.Abs(p.DequantizeAct(q[i]) - v); d > p.Scale+1e-9*math.Abs(v) {
				t.Fatalf("ActParamsOf(%v): %v round-trips with error %v > step %v", x, v, d, p.Scale)
			}
		}
	}
	if p := ActParamsOf([]float64{0, 0}); p.Scale != 0 || p.ZeroPoint != 0 {
		t.Fatalf("all-zero frame got %+v, want zero Params", p)
	}
	if p := ActParamsOf([]float64{-2, 2}); p.ZeroPoint != 0 {
		t.Fatalf("symmetric frame got ZeroPoint %d, want 0", p.ZeroPoint)
	}
}

// TestQuantizeRowErrorFeedback pins the sigma-delta weight rounding:
// per-weight error stays within a full step, every row's running sum
// of dequantized weights tracks the float running sum within half a
// step, and exact zeros keep code 0.
func TestQuantizeRowErrorFeedback(t *testing.T) {
	rng := mat.NewRNG(41)
	w := make([]float64, 257)
	rng.FillNorm(w, 0.3, 1)
	w[3], w[100], w[256] = 0, 0, 0
	p := ParamsOf(w)
	q := make([]int8, len(w))
	p.QuantizeRow(q, w)
	var sumW, sumQ float64
	for i, v := range w {
		d := p.Dequantize(q[i])
		if v == 0 && q[i] != 0 {
			t.Fatalf("exact zero at %d got code %d", i, q[i])
		}
		if math.Abs(d-v) > p.Scale+1e-15 {
			t.Fatalf("weight %d error %v exceeds one step %v", i, math.Abs(d-v), p.Scale)
		}
		sumW += v
		sumQ += d
		if math.Abs(sumQ-sumW) > p.Scale/2+1e-12 {
			t.Fatalf("running sum drifted to %v at %d, feedback bound is %v", math.Abs(sumQ-sumW), i, p.Scale/2)
		}
	}
}

// TestZeroStaysZero pins the property the CSR hybrid depends on: an
// exactly-zero weight (what a pruning mask leaves behind) quantizes
// to code 0 and dequantizes back to exactly 0.0.
func TestZeroStaysZero(t *testing.T) {
	p := ParamsOf([]float64{-3, 0, 1.7})
	q := make([]int8, 1)
	p.Quantize(q, []float64{0})
	if q[0] != 0 {
		t.Fatalf("zero quantized to code %d", q[0])
	}
	if v := p.Dequantize(0); v != 0 {
		t.Fatalf("code 0 dequantized to %v", v)
	}
}

// TestQuantizationErrorBounded pins the grid's defining property:
// every in-range value round-trips within half a step.
func TestQuantizationErrorBounded(t *testing.T) {
	rng := mat.NewRNG(5)
	vals := make([]float64, 512)
	rng.FillNorm(vals, 0, 1)
	p := ParamsOf(vals)
	q := make([]int8, len(vals))
	p.Quantize(q, vals)
	for i, v := range vals {
		if d := math.Abs(p.Dequantize(q[i]) - v); d > p.Scale/2+1e-15 {
			t.Fatalf("value %v round-trips with error %v > step/2 %v", v, d, p.Scale/2)
		}
	}
}

// TestDenseMatVecApproximatesFloat bounds the int8 kernel's output
// error by the analytic worst case: each of the n products carries at
// most a full-step error in the weight (rounding plus carried
// feedback residual) and a full-step error in the activation
// (rounding plus the grid shift from rounding the zero point itself)
// — in practice far below the loose bound asserted here.
func TestDenseMatVecApproximatesFloat(t *testing.T) {
	rng := mat.NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(16), 1+rng.Intn(64)
		m := randomMatrix(rng, rows, cols, 1)
		bias := make([]float64, rows)
		rng.FillNorm(bias, 0, 1)
		x := make([]float64, cols)
		rng.FillNorm(x, 0, 1)

		want := make([]float64, rows)
		m.MatVec(want, x)
		for i := range want {
			want[i] += bias[i]
		}

		d := FromMatrix(m, bias)
		got := make([]float64, rows)
		var s Scratch
		d.MatVec(&s, got, x)

		// |ŵx̂ − wx| ≤ |w|·|x̂−x| + |x̂|·|ŵ−w| with full-step bounds on
		// both factors, summed over all n products: loose but
		// sufficient.
		wp, xp := d.P, ActParamsOf(x)
		tol := float64(cols) * (maxAbs(m.Data)*xp.Scale +
			(maxAbs(x)+xp.Scale)*wp.Scale)
		for i := range want {
			if diff := math.Abs(got[i] - want[i]); diff > tol {
				t.Fatalf("trial %d row %d: int8 %v vs float %v (diff %v > tol %v)",
					trial, i, got[i], want[i], diff, tol)
			}
		}
	}
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// TestCSRMatchesDenseOnSameWeights pins that the hybrid kernel
// computes the same quantized algebra as the dense int8 kernel when
// the matrix is the same: identical params, identical outputs, while
// only storing the nonzeros.
func TestCSRMatchesDenseOnSameWeights(t *testing.T) {
	rng := mat.NewRNG(33)
	m := randomMatrix(rng, 11, 23, 0.2)
	bias := make([]float64, 11)
	rng.FillNorm(bias, 0, 1)
	d := FromMatrix(m, bias)
	c := FromCSR(sparseFrom(m, bias))
	if d.P != c.P {
		t.Fatalf("params differ: dense %+v vs csr %+v", d.P, c.P)
	}

	x := make([]float64, 23)
	rng.FillNorm(x, 0, 1)
	var s1, s2 Scratch
	dd := make([]float64, 11)
	cc := make([]float64, 11)
	d.MatVec(&s1, dd, x)
	c.MatVec(&s2, cc, x)
	for r := range dd {
		if math.Float64bits(dd[r]) != math.Float64bits(cc[r]) {
			t.Fatalf("row %d: dense-int8 %v != csr-int8 %v", r, dd[r], cc[r])
		}
	}
}

// TestCSRKeepsIndexStructure pins that quantization reuses the float
// CSR view's exact index structure, even for nonzeros that quantize
// to code 0.
func TestCSRKeepsIndexStructure(t *testing.T) {
	m := mat.NewMatrix(2, 4)
	m.Set(0, 1, 1.0)
	m.Set(0, 3, 1e-9) // quantizes to code 0 but must keep its slot
	m.Set(1, 0, -0.5)
	fl := sparseFrom(m, nil)
	c := FromCSR(fl)
	if c.NNZ() != fl.NNZ() {
		t.Fatalf("NNZ %d != float CSR %d", c.NNZ(), fl.NNZ())
	}
	for i := range fl.RowPtr {
		if c.RowPtr[i] != fl.RowPtr[i] {
			t.Fatalf("RowPtr[%d] diverged", i)
		}
	}
	for i := range fl.Cols {
		if c.Cols[i] != fl.Cols[i] {
			t.Fatalf("Cols[%d] diverged", i)
		}
	}
	if c.Q[1] != 0 {
		t.Fatalf("tiny weight code = %d, want 0", c.Q[1])
	}
}

// TestDeterministic pins that quantization and both kernels are pure
// functions: two builds over the same inputs produce bit-identical
// codes and outputs.
func TestDeterministic(t *testing.T) {
	rng := mat.NewRNG(77)
	m := randomMatrix(rng, 9, 17, 0.5)
	x := make([]float64, 17)
	rng.FillNorm(x, 0, 1)

	d1, d2 := FromMatrix(m, nil), FromMatrix(m, nil)
	for i := range d1.Q {
		if d1.Q[i] != d2.Q[i] {
			t.Fatalf("code %d differs across builds", i)
		}
	}
	var s1, s2 Scratch
	o1 := make([]float64, 9)
	o2 := make([]float64, 9)
	d1.MatVec(&s1, o1, x)
	d2.MatVec(&s2, o2, x)
	for i := range o1 {
		if math.Float64bits(o1[i]) != math.Float64bits(o2[i]) {
			t.Fatalf("output %d differs across builds", i)
		}
	}
}
