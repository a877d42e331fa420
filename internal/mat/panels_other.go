//go:build !amd64

package mat

// useAVX is false off amd64: every panel, and every BSR tile, runs the
// portable body.
var useAVX = false

// useAVX2 is false off amd64: no integer vector body runs.
var useAVX2 = false

func panelAVX(w, x []float64, b, out *[panelRows]float64) {
	panic("mat: no AVX panel body on this architecture")
}

func panel2AVX(w, x []float64, b, out *[2 * panelRows]float64) {
	panic("mat: no AVX panel body on this architecture")
}
