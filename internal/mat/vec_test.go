package mat

import (
	"math"
	"testing"
)

// vecSpecials are the values the vector bodies must treat exactly as
// the scalar loops do: signed zeros, subnormals, squares that underflow
// or overflow, infinities and NaN.
var vecSpecials = []float64{
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64,
	0x1p-1022, 1e-160, -1e160, 1e308, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 3,
}

// fillVec fills v with normal draws over magnitudes 1e-120 to 1e120, a
// third of them replaced by vecSpecials.
func fillVec(rng *RNG, v []float64) {
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = vecSpecials[rng.Intn(len(vecSpecials))]
		} else {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(241)-120))
		}
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// groupNormsScalar is the p-norm loop GroupNorms replaced, kept as its
// oracle.
func groupNormsScalar(dst, x []float64, group int, eps float64) {
	for j := range dst {
		var s float64
		for k := 0; k < group; k++ {
			v := x[j*group+k]
			s += v * v
		}
		dst[j] = math.Sqrt(s + eps)
	}
}

// TestGroupNormsMatchScalar pins GroupNorms bit for bit against the
// scalar loop through both bodies, for groups of 1 to 8 and every
// output count from 0 to 41, so every leftover of the four-group pass.
func TestGroupNormsMatchScalar(t *testing.T) {
	rng := NewRNG(5)
	for group := 1; group <= 8; group++ {
		for outs := 0; outs <= 41; outs++ {
			for trial := 0; trial < 8; trial++ {
				x := make([]float64, outs*group)
				fillVec(rng, x)
				want := make([]float64, outs)
				groupNormsScalar(want, x, group, 1e-20)
				got := make([]float64, outs)
				bodies(func(body string) {
					Fill(got, 42)
					GroupNorms(got, x, group, 1e-20)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%s body, group %d, %d outputs: out %d is %v (%#x), scalar %v (%#x)",
							body, group, outs, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				})
			}
		}
	}
}

func TestGroupNormsPanicsOnMismatch(t *testing.T) {
	for _, tc := range []struct{ outs, in, group int }{{2, 9, 5}, {2, 10, 0}, {0, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d inputs, %d outputs, group %d: no panic", tc.in, tc.outs, tc.group)
				}
			}()
			GroupNorms(make([]float64, tc.outs), make([]float64, tc.in), tc.group, 0)
		}()
	}
}

// TestScaleMatchesScalar pins Scale against c*v on both bodies, every
// length from 0 to 21, in place and into a second slice.
func TestScaleMatchesScalar(t *testing.T) {
	rng := NewRNG(6)
	for n := 0; n <= 21; n++ {
		for trial := 0; trial < 16; trial++ {
			x := make([]float64, n)
			fillVec(rng, x)
			c := vecSpecials[rng.Intn(len(vecSpecials))]
			if trial%2 == 0 {
				c = rng.NormFloat64()
			}
			want := make([]float64, n)
			for i, v := range x {
				want[i] = c * v
			}
			bodies(func(body string) {
				got := make([]float64, n)
				Scale(got, c, x)
				inPlace := append([]float64(nil), x...)
				Scale(inPlace, c, inPlace)
				for _, out := range [][]float64{got, inPlace} {
					if i := sameBits(out, want); i >= 0 {
						t.Fatalf("%s body, n %d, c %v: out %d is %v, want %v", body, n, c, i, out[i], want[i])
					}
				}
			})
		}
	}
}
