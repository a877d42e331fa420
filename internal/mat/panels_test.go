package mat

import (
	"math"
	"testing"
)

// bodies runs f once per kernel body this machine can execute,
// switching between them through useAVX: the portable body always,
// the AVX body where the CPU has it.
func bodies(f func(name string)) {
	saved := useAVX
	defer func() { useAVX = saved }()
	useAVX = false
	f("portable")
	if saved {
		useAVX = true
		f("avx")
	}
}

// TestPanelsMatchMatVec pins Panels.MatVec bit for bit against
// Matrix.MatVec followed by the bias add through both panel bodies, on every row count from 1
// to 80 (so full panels, ragged last panels, and odd and even panel
// counts for the AVX body's two-panel pass, its pair ragged or whole)
// and every column count from 1 to 80, with the values of
// TestMatVecMatchesSingleChain: signed zeros, subnormals, and partial
// sums that overflow to ±Inf and then NaN.
func TestPanelsMatchMatVec(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64,
		0x1p-1022, 1e308, -1e308, math.MaxFloat64, 1, -1, 1e-300, 3,
	}
	rng := NewRNG(11)
	fill := func(v []float64) {
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
	}
	for rows := 1; rows <= 80; rows++ {
		for cols := 1; cols <= 80; cols++ {
			m := NewMatrix(rows, cols)
			x := make([]float64, cols)
			b := make([]float64, rows)
			fill(m.Data)
			fill(x)
			fill(b)
			want := make([]float64, rows)
			m.MatVec(want, x)
			for i := range want {
				want[i] += b[i]
			}
			p := NewPanels(m, b)
			got := make([]float64, rows)
			bodies(func(body string) {
				Fill(got, math.NaN())
				p.MatVec(got, x)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s body, %dx%d row %d: Panels %v (%#x), Matrix %v (%#x)",
							body, rows, cols, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			})
		}
	}
}

// TestPanelsZeroColumns: with no input column every output is the
// empty sum, +0, plus its bias (so a -0 bias gives +0), and neither
// panel body runs — the AVX loop would not stop on a zero count.
func TestPanelsZeroColumns(t *testing.T) {
	for _, rows := range []int{0, 1, 15, 16, 17, 40} {
		b := make([]float64, rows)
		for i := range b {
			b[i] = []float64{math.Copysign(0, -1), 0, 1.5, -2}[i%4]
		}
		p := NewPanels(NewMatrix(rows, 0), b)
		got := make([]float64, rows)
		bodies(func(body string) {
			Fill(got, math.NaN())
			p.MatVec(got, nil)
			for i, v := range got {
				if want := 0 + b[i]; math.Float64bits(v) != math.Float64bits(want) || (b[i] == 0 && math.Signbit(v)) {
					t.Fatalf("%s body, %dx0 row %d: %v, want %v", body, rows, i, v, want)
				}
			}
		})
	}
}

func TestNewPanelsPanicsOnBiasMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for a short bias")
		}
	}()
	NewPanels(NewMatrix(3, 2), make([]float64, 2))
}

func TestPanelsMatVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for a short x")
		}
	}()
	NewPanels(NewMatrix(2, 3), make([]float64, 2)).MatVec(make([]float64, 2), make([]float64, 2))
}

// BenchmarkPanelsMatVec compares the packed panels, through each body
// this machine has, against the row-major Matrix.MatVec on a 400×80
// layer.
func BenchmarkPanelsMatVec(b *testing.B) {
	rng := NewRNG(1)
	m := NewMatrix(400, 80)
	rng.FillNorm(m.Data, 0, 1)
	x := make([]float64, m.Cols)
	rng.FillNorm(x, 0, 1)
	dst := make([]float64, m.Rows)
	b.Run("matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MatVec(dst, x)
		}
	})
	p := NewPanels(m, make([]float64, m.Rows))
	bodies(func(body string) {
		b.Run("panels-"+body, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.MatVec(dst, x)
			}
		})
	})
}
