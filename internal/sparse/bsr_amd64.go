package sparse

// bsr8AVX is the 8×8 BSR body in AVX (bsr_amd64.s). It scores the
// len(dst)/8 full block rows of an 8×8 BSR into dst. Each block row
// starts two YMM accumulators of four rows at +0; per stored tile
// column it does one VBROADCASTSD of x[c], then a VMULPD and a VADDPD
// into each accumulator. A right-edge tile runs only the columns below
// len(x). After the tile sums it adds the row's bias, unless bias is
// empty, and stores the row. No FMA: each lane rounds every multiply
// and add separately, exactly like rows8 and MatVec's bias loop. The
// caller must hold mat.HasAVX.
//
//go:noescape
func bsr8AVX(dst, x, bias, blocks []float64, blockCols, rowPtr []int32)
