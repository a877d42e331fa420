//go:build !amd64

package serve

func encodeAVX2(dst, src []byte) int {
	panic("serve: no AVX2 frame encoder on this architecture")
}

func decodeAVX2(dst, src []byte) int {
	panic("serve: no AVX2 frame decoder on this architecture")
}

func finiteAVX2(x []float64) bool {
	panic("serve: no AVX2 finiteness check on this architecture")
}

func f64Bytes(x []float64) []byte {
	panic("serve: frame bits are copied, not aliased, on this architecture")
}
