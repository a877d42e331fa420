//go:build !amd64

package sparse

func sell4AVX(dst, x, bias, weights []float64, cols, groupPtr, perm []int32) {
	panic("sparse: no AVX SELL body on this architecture")
}
