package qkern

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
)

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

// TestZeroStaysZero pins that quantizing keeps a layer's sparsity
// pattern: an exactly-zero weight (what a pruning mask leaves behind) quantizes
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

// prunedNet builds an untrained network pruned to the given global
// fraction (0 = dense baseline) by the real magnitude rule.
func prunedNet(t *testing.T, target float64) *dnn.Network {
	t.Helper()
	topo := dnn.Topology{FeatDim: 6, Context: 1, Hidden: 24, PoolGroup: 4, HiddenBlocks: 2, Senones: 15}
	net := topo.Build(mat.NewRNG(7))
	if target > 0 {
		quality, err := pruning.CalibrateQuality(net, target)
		if err != nil {
			t.Fatal(err)
		}
		pruning.Prune(net, quality)
	}
	return net
}

// testFrames returns deterministic frames spanning several input
// distributions.
func testFrames(n, dim int) [][]float64 {
	rng := mat.NewRNG(42)
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = make([]float64, dim)
		rng.FillNorm(frames[i], float64(i%5)-2, 1.5)
	}
	return frames
}

// TestNetLogitErrorBounded bounds the int8 pass's per-frame logit
// error against the float plan of the same network. Small relative
// error here is what makes >= 99% top-1 posterior agreement
// achievable downstream (experiments.TestInt8TableWithinErrorBudget).
func TestNetLogitErrorBounded(t *testing.T) {
	for _, target := range []float64{0, 0.7, 0.9} {
		t.Run(fmt.Sprintf("p%.0f", 100*target), func(t *testing.T) {
			net := prunedNet(t, target)
			ref := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
			q := Compile(net)
			for i, f := range testFrames(24, net.InDim()) {
				want := append([]float64(nil), ref.Logits(f)...)
				got := q.Logits(f)
				var num, den float64
				for r := range want {
					d := got[r] - want[r]
					num += d * d
					den += want[r] * want[r]
				}
				if rel := math.Sqrt(num / (den + 1e-12)); rel > 0.05 {
					t.Fatalf("frame %d: relative logit error %.4f > 5%%", i, rel)
				}
			}
		})
	}
}

// TestDeterministic pins that quantization and the kernel are pure
// functions: two builds over the same inputs produce bit-identical
// codes and outputs. The whole pass's determinism is pinned by
// dnn.TestInt8Deterministic.
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
