//go:build !amd64

package sparse

func bsr8AVX(dst, x, bias, blocks []float64, blockCols, rowPtr []int32) {
	panic("sparse: no AVX BSR body on this architecture")
}
