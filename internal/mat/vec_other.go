//go:build !amd64

package mat

func groupNormsAVX(dst, x []float64, group int, eps float64) {
	panic("mat: no AVX p-norm body on this architecture")
}

func scaleAVX(dst []float64, alpha float64, x []float64) {
	panic("mat: no AVX scale body on this architecture")
}
