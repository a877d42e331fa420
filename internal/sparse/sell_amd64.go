package sparse

// sell4AVX is the SELL-4 body in AVX (sell_amd64.s). It scores the
// len(perm)/4 full groups of a SELL layout. Each group starts one YMM
// accumulator at +0; per step it builds the four inputs from scalar
// VMOVSD/VMOVHPD loads and a VINSERTF128, then does one VMULPD by the
// step's weights and one VADDPD. After the steps it adds the four
// rows' bias and stores each lane at dst[perm[lane]]. No FMA: each
// lane rounds every multiply and add separately, exactly like the
// portable body. groupPtr must have len(perm)/4+1 entries. The caller
// must hold mat.HasAVX.
//
//go:noescape
func sell4AVX(dst, x, bias, weights []float64, cols, groupPtr, perm []int32)
