package sparse

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
)

// TestSELLLayout pins the packing on a small matrix: rows sorted by
// nonzero count, most first and ties in row order, groups of four
// padded to their longest row, and a ragged last group.
func TestSELLLayout(t *testing.T) {
	// Row nonzero counts 1, 3, 0, 3, 2, 1.
	m := mat.NewMatrix(6, 4)
	m.Set(0, 2, 1)
	m.Set(1, 0, 2)
	m.Set(1, 1, 3)
	m.Set(1, 3, 4)
	m.Set(3, 1, 5)
	m.Set(3, 2, 6)
	m.Set(3, 3, 7)
	m.Set(4, 0, 8)
	m.Set(4, 3, 9)
	m.Set(5, 1, 10)
	l := FromDenseSELL(m, nil)
	if got, want := fmt.Sprint(l.perm), "[1 3 4 0 5 2]"; got != want {
		t.Fatalf("perm = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(l.groupPtr), "[0 3 4]"; got != want {
		t.Fatalf("groupPtr = %s, want %s", got, want)
	}
	if l.NNZ() != m.NNZ() || l.Stored() != 4*4 {
		t.Fatalf("NNZ %d Stored %d, want %d and 16", l.NNZ(), l.Stored(), m.NNZ())
	}
	// Step 0 of group 0 holds the first nonzero of rows 1, 3, 4, 0.
	if got, want := fmt.Sprint(l.weights[:4], l.cols[:4]), "[2 5 8 1] [0 1 0 2]"; got != want {
		t.Fatalf("step 0 = %s, want %s", got, want)
	}
	back := l.ToDense()
	for i := range m.Data {
		if m.Data[i] != back.Data[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestSELLRoundTrip(t *testing.T) {
	rng := mat.NewRNG(5)
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := randomSparseMatrix(rng, rows, cols, 0.3)
		l := FromDenseSELL(m, nil)
		back := l.ToDense()
		for i := range m.Data {
			if m.Data[i] != back.Data[i] {
				t.Fatalf("%dx%d: round trip mismatch at %d", rows, cols, i)
			}
		}
		if l.NNZ() != m.NNZ() {
			t.Fatalf("NNZ mismatch: %d vs %d", l.NNZ(), m.NNZ())
		}
	}
}

// TestSELLBodiesMatchMatVec pins SELL.MatVec, through both bodies,
// bit for bit against Matrix.MatVec plus the bias on every shape from
// 1 to 40 rows and 1 to 80 columns. Each row is empty, fully dense or
// sparse at a random density, so groups mix very different lengths and
// carry padding, and every row count that is not a multiple of four
// leaves a ragged last group. Weights, inputs and biases mix signed
// zeros, subnormals and magnitudes whose partial sums overflow to ±Inf
// and then NaN, as in mat's panel test; every other shape has no
// bias. Inputs stay finite, so the zeros SELL skips, and the +0
// padding it adds, are exact zero terms of the dense sum.
func TestSELLBodiesMatchMatVec(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64,
		0x1p-1022, 1e308, -1e308, math.MaxFloat64, 1, -1, 1e-300, 3,
	}
	rng := mat.NewRNG(29)
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for rows := 1; rows <= 40; rows++ {
		for cols := 1; cols <= 80; cols++ {
			m := mat.NewMatrix(rows, cols)
			for r := 0; r < rows; r++ {
				keep := []float64{0, 1, 0.1, 0.5}[rng.Intn(4)]
				for c := 0; c < cols; c++ {
					if rng.Float64() < keep {
						m.Set(r, c, value())
					}
				}
			}
			var bias []float64
			if (rows+cols)%2 == 0 {
				bias = make([]float64, rows)
				for i := range bias {
					bias[i] = value()
				}
			}
			x := make([]float64, cols)
			for i := range x {
				x[i] = value()
			}
			want := make([]float64, rows)
			m.MatVec(want, x)
			for i := range bias {
				want[i] += bias[i]
			}
			l := FromDenseSELL(m, bias)
			got := make([]float64, rows)
			bodies(func(body string) {
				mat.Fill(got, math.NaN())
				l.MatVec(got, x)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s body, %dx%d (%d nonzeros, %d stored) row %d: SELL %v (%#x), Matrix %v (%#x)",
							body, rows, cols, l.NNZ(), l.Stored(), i,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			})
		}
	}
}

// BenchmarkCSRMatVec runs the served FC shapes at about 10% density
// (the p90 model's 400×80, 400×60 and 48×80 layers) through each SELL
// body this machine has; mat's BenchmarkPanelsMatVec is the dense
// layer of the first shape.
func BenchmarkCSRMatVec(b *testing.B) {
	for _, shape := range [][2]int{{400, 80}, {400, 60}, {48, 80}} {
		rng := mat.NewRNG(1)
		l := FromDenseSELL(randomSparseMatrix(rng, shape[0], shape[1], 0.1), make([]float64, shape[0]))
		x := make([]float64, l.ColsDim)
		rng.FillNorm(x, 0, 1)
		dst := make([]float64, l.Rows)
		bodies(func(body string) {
			b.Run(fmt.Sprintf("%dx%d/%s", shape[0], shape[1], body), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l.MatVec(dst, x)
				}
			})
		})
	}
}
