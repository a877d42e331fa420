package mat

// groupNormsAVX is GroupNorms' AVX body (vec_amd64.s) for len(dst) a
// multiple of four: per pass of four groups one YMM accumulator starts
// at +0, and per member four scalar loads (VMOVSD, VMOVHPD,
// VINSERTF128) gather the member of each group into the lanes, which
// one VMULPD squares and one VADDPD adds. Then one VADDPD adds eps, one
// VSQRTPD takes the roots and one VMOVUPD stores them. No FMA. group
// must be at least 1 and len(x) must be len(dst)*group.
//
//go:noescape
func groupNormsAVX(dst, x []float64, group int, eps float64)

// scaleAVX is Scale's AVX body: one VMULPD per four elements, scalar
// VMULSD for the len(x)%4 left over. len(dst) must be len(x).
//
//go:noescape
func scaleAVX(dst []float64, alpha float64, x []float64)
