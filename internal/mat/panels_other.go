//go:build !amd64

package mat

// useAVX is false off amd64: every panel runs the portable body.
var useAVX = false

func panelAVX(w, x []float64, out *[panelRows]float64) {
	panic("mat: no AVX panel body on this architecture")
}
