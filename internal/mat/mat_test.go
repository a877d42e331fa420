package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("Set/At mismatch")
	}
	if got := m.Row(1); got[2] != 5 {
		t.Fatalf("Row aliasing broken: %v", got)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatalf("Clone shares storage")
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for negative dims")
		}
	}()
	NewMatrix(-1, 2)
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	m.MatVec(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

// TestMatVecMatchesSingleChain pins the row-blocked MatVec bit for bit
// against the one-add-chain-per-row loop it replaced, on every Rows%4
// remainder and on ragged column counts, with values chosen to expose
// any change of accumulation order: signed zeros, subnormals, and
// magnitudes whose partial sums overflow to ±Inf (and then NaN).
func TestMatVecMatchesSingleChain(t *testing.T) {
	reference := func(m *Matrix, x []float64) []float64 {
		out := make([]float64, m.Rows)
		for i := range out {
			var s float64
			for j := 0; j < m.Cols; j++ {
				s += m.Data[i*m.Cols+j] * x[j]
			}
			out[i] = s
		}
		return out
	}
	specials := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64,
		0x1p-1022, 1e308, -1e308, math.MaxFloat64, 1, -1, 1e-300, 3,
	}
	rng := NewRNG(5)
	fill := func(v []float64) {
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
	}
	for rows := 0; rows <= 13; rows++ {
		for _, cols := range []int{0, 1, 2, 3, 5, 8, 17, 64} {
			for trial := 0; trial < 4; trial++ {
				m := NewMatrix(rows, cols)
				x := make([]float64, cols)
				fill(m.Data)
				fill(x)
				got := make([]float64, rows)
				m.MatVec(got, x)
				for i, w := range reference(m, x) {
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("%dx%d trial %d row %d: MatVec %v (%#x), single chain %v (%#x)",
							rows, cols, trial, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
					}
					if d := Dot(m.Row(i), x); math.Float64bits(d) != math.Float64bits(w) {
						t.Fatalf("%dx%d trial %d row %d: Dot %v, single chain %v", rows, cols, trial, i, d, w)
					}
				}
			}
		}
	}
}

func TestMatVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 2}
	dst := make([]float64, 3)
	m.MatVecT(dst, x)
	want := []float64{9, 12, 15}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatVecT = %v, want %v", dst, want)
		}
	}
}

func TestMatVecTransposeConsistency(t *testing.T) {
	// property: y·(Mx) == x·(Mᵀy) for random matrices
	rng := NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(r, c)
		rng.FillNorm(m.Data, 0, 1)
		x := make([]float64, c)
		y := make([]float64, r)
		rng.FillNorm(x, 0, 1)
		rng.FillNorm(y, 0, 1)
		mx := make([]float64, r)
		m.MatVec(mx, x)
		mty := make([]float64, c)
		m.MatVecT(mty, y)
		if !almostEqual(Dot(y, mx), Dot(x, mty), 1e-9) {
			t.Fatalf("transpose identity failed: %v vs %v", Dot(y, mx), Dot(x, mty))
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpyScaleFill(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy = %v", y)
	}
	Scale(y, 0.5, y)
	if y[0] != 6 || y[1] != 12 {
		t.Fatalf("Scale = %v", y)
	}
	Fill(y, 7)
	if y[0] != 7 || y[1] != 7 {
		t.Fatalf("Fill = %v", y)
	}
}

func TestArgMaxMin(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Fatalf("empty slice should give -1")
	}
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if ArgMax(x) != 5 {
		t.Fatalf("ArgMax = %d", ArgMax(x))
	}
}

func TestLogSumExpStable(t *testing.T) {
	// must not overflow with large values
	x := []float64{1000, 1000}
	got := LogSumExp(x)
	want := 1000 + math.Log(2)
	if !almostEqual(got, want, 1e-9) {
		t.Fatalf("LogSumExp = %v, want %v", got, want)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatalf("LogSumExp(nil) should be -Inf")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			// clamp to avoid NaN/Inf from quick's extreme values
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 50)
		}
		dst := make([]float64, len(x))
		conf := Softmax(dst, x)
		var sum float64
		maxP := 0.0
		for _, p := range dst {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
			if p > maxP {
				maxP = p
			}
		}
		return almostEqual(sum, 1, 1e-9) && almostEqual(conf, maxP, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxMatchesLogSoftmax(t *testing.T) {
	rng := NewRNG(4)
	x := make([]float64, 17)
	rng.FillNorm(x, 0, 3)
	p := make([]float64, len(x))
	lp := make([]float64, len(x))
	Softmax(p, x)
	LogSoftmax(lp, x)
	for i := range x {
		if !almostEqual(math.Log(p[i]), lp[i], 1e-9) {
			t.Fatalf("log(softmax) != logsoftmax at %d", i)
		}
	}
}

func TestNorm2(t *testing.T) {
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatalf("Norm2 broken")
	}
}
