package sparse

import (
	"fmt"

	"repro/internal/mat"
)

// MaxBlock bounds the supported BSR block edge. The generic body keeps
// a block row's accumulators in a fixed array on the stack, so the edge
// must be known small. The pruning strategy uses 4 and 8, the
// hardware-aligned shapes of Kang's accelerator-aware pruning: a
// column of an 8×8 tile is two YMM registers, and 8 is the edge the
// AVX body runs.
const MaxBlock = 16

// BSR is a block-sparse-row view of an out×in weight matrix: the dense
// grid is cut into Block×Block tiles and only tiles containing at least
// one nonzero are stored, each as a dense column-major micro-tile. One
// column index is stored per tile instead of per nonzero — the index
// overhead the CSR gather pays per weight is amortized over Block²
// weights, and the tile's inputs are Block *consecutive* words, so the
// accelerator's I/O gather degenerates to a short streaming read.
//
// Block row br's tiles are Blocks[RowPtr[br]*Block²:RowPtr[br+1]*Block²]
// with block-column indices BlockCols[RowPtr[br]:RowPtr[br+1]] in
// ascending order. Within a tile, row rr of column cc is at
// tile[cc*Block+rr], so the Block weights one input feeds sit next to
// each other, as in mat.Panels. Edge tiles (when Rows or ColsDim is
// not a multiple of Block) are zero-padded to full tiles. The fields
// are exported for reading; MatVec's assembly body trusts them to be
// as FromDenseBSR built them.
type BSR struct {
	Rows, ColsDim int
	Block         int
	RowPtr        []int32 // block-row pointers, len = BlockRows()+1
	BlockCols     []int32 // block-column index per stored tile
	Blocks        []float64
	Bias          []float64
}

// FromDenseBSR compresses a dense matrix into BSR form with the given
// block edge, storing every Block×Block tile that contains at least one
// nonzero. bias may be nil. Like FromDense, a first counting pass fixes
// the tile count so every slice is allocated exactly once.
func FromDenseBSR(w *mat.Matrix, bias []float64, block int) *BSR {
	rows, cols := w.Rows, w.Cols
	if block <= 0 || block > MaxBlock {
		panic(fmt.Sprintf("sparse: BSR block %d out of range [1,%d]", block, MaxBlock))
	}
	l := &BSR{Rows: rows, ColsDim: cols, Block: block}
	if bias != nil {
		l.Bias = append([]float64(nil), bias...)
	}
	brows := (rows + block - 1) / block
	bcols := (cols + block - 1) / block
	l.RowPtr = make([]int32, brows+1)

	tileNonzero := func(br, bc int) bool {
		for r := br * block; r < (br+1)*block && r < rows; r++ {
			for c := bc * block; c < (bc+1)*block && c < cols; c++ {
				if w.At(r, c) != 0 {
					return true
				}
			}
		}
		return false
	}

	nnzb := int32(0)
	for br := 0; br < brows; br++ {
		for bc := 0; bc < bcols; bc++ {
			if tileNonzero(br, bc) {
				nnzb++
			}
		}
		l.RowPtr[br+1] = nnzb
	}
	l.BlockCols = make([]int32, nnzb)
	l.Blocks = make([]float64, int(nnzb)*block*block)
	k := 0
	for br := 0; br < brows; br++ {
		for bc := 0; bc < bcols; bc++ {
			if !tileNonzero(br, bc) {
				continue
			}
			l.BlockCols[k] = int32(bc)
			tile := l.Blocks[k*block*block : (k+1)*block*block]
			for rr := 0; rr < block; rr++ {
				r := br*block + rr
				if r >= rows {
					break
				}
				for cc := 0; cc < block; cc++ {
					c := bc*block + cc
					if c >= cols {
						break
					}
					tile[cc*block+rr] = w.At(r, c)
				}
			}
			k++
		}
	}
	return l
}

// BlockRows reports the number of block rows.
func (l *BSR) BlockRows() int { return (l.Rows + l.Block - 1) / l.Block }

// BlockCount reports the number of stored tiles.
func (l *BSR) BlockCount() int { return len(l.BlockCols) }

// Stored reports the number of stored weight slots (tiles × Block²,
// including edge padding) — the weights the dense micro-tile kernels
// actually stream.
func (l *BSR) Stored() int { return len(l.Blocks) }

// NNZ reports the number of nonzero weights inside the stored tiles.
func (l *BSR) NNZ() int {
	n := 0
	for _, v := range l.Blocks {
		if v != 0 {
			n++
		}
	}
	return n
}

// StorageBits estimates the model storage in bits for the accelerator's
// weight buffer: every stored tile carries Block² weights but only ONE
// block-column index, plus a bias word per row. This is the BSR
// counterpart of Layer.StorageBits — at equal nonzero count the index
// overhead shrinks by Block² (amortized per tile instead of paid per
// weight), the storage half of the structured-sparsity bargain.
func (l *BSR) StorageBits(weightBits, indexBits int) int64 {
	perTile := int64(l.Block*l.Block)*int64(weightBits) + int64(indexBits)
	return int64(l.BlockCount())*perTile + int64(l.Rows)*int64(weightBits)
}

// MatVec computes dst = L·x (+ bias when present). dst must have
// length Rows and x length ColsDim. dst may not alias x.
//
// Every row has its own accumulator. It starts at +0 and takes the
// s += w*x step of the dense sum, a separately rounded multiply and
// add, over its tiles in ascending block-column order and, within a
// tile, over the tile's real columns in ascending order; the bias is
// added after the tile sums. That is exactly the order the dense sum
// visits those columns, so the result is bit-identical to the dense
// matvec (and to the CSR kernel) on matrices whose skipped entries
// are exact zeros, whichever body runs. For Block 8 on an AVX machine
// (mat.HasAVX) one assembly call scores every full block row; a ragged
// last block row, other block edges and other machines run the
// portable Go bodies over the same layout.
func (l *BSR) MatVec(dst, x []float64) {
	if len(x) != l.ColsDim || len(dst) != l.Rows {
		panic(fmt.Sprintf("sparse: BSR MatVec dimension mismatch: layer %dx%d, x %d, dst %d",
			l.Rows, l.ColsDim, len(x), len(dst)))
	}
	done := 0 // rows the AVX body scored, bias included
	if l.Block == 8 && mat.HasAVX() {
		bsr8AVX(dst, x, l.Bias, l.Blocks, l.BlockCols, l.RowPtr)
		done = l.Rows &^ 7
	}
	switch l.Block {
	case 8:
		l.rows8(dst, x, done/8)
	case 4:
		l.rows4(dst, x)
	default:
		l.rowsGeneric(dst, x)
	}
	if l.Bias != nil {
		for i := done; i < l.Rows; i++ {
			dst[i] += l.Bias[i]
		}
	}
}

// rows8 is the portable 8×8 body: it scores block rows from..BlockRows
// into dst. A full tile loads its eight inputs once and runs 64
// straight-line statements, column by column, into eight accumulators
// the compiler keeps in registers; a right-edge tile runs only its real
// columns.
func (l *BSR) rows8(dst, x []float64, from int) {
	for br := from; br < l.BlockRows(); br++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for k := l.RowPtr[br]; k < l.RowPtr[br+1]; k++ {
			c0 := int(l.BlockCols[k]) * 8
			t := l.Blocks[int(k)*64:][:64]
			if c0+8 > len(x) {
				for cc, xc := range x[c0:] {
					col := t[cc*8:][:8]
					a0 += col[0] * xc
					a1 += col[1] * xc
					a2 += col[2] * xc
					a3 += col[3] * xc
					a4 += col[4] * xc
					a5 += col[5] * xc
					a6 += col[6] * xc
					a7 += col[7] * xc
				}
				continue
			}
			xv := x[c0:][:8]
			x0, x1, x2, x3, x4, x5, x6, x7 := xv[0], xv[1], xv[2], xv[3], xv[4], xv[5], xv[6], xv[7]
			a0 += t[0] * x0
			a1 += t[1] * x0
			a2 += t[2] * x0
			a3 += t[3] * x0
			a4 += t[4] * x0
			a5 += t[5] * x0
			a6 += t[6] * x0
			a7 += t[7] * x0
			a0 += t[8] * x1
			a1 += t[9] * x1
			a2 += t[10] * x1
			a3 += t[11] * x1
			a4 += t[12] * x1
			a5 += t[13] * x1
			a6 += t[14] * x1
			a7 += t[15] * x1
			a0 += t[16] * x2
			a1 += t[17] * x2
			a2 += t[18] * x2
			a3 += t[19] * x2
			a4 += t[20] * x2
			a5 += t[21] * x2
			a6 += t[22] * x2
			a7 += t[23] * x2
			a0 += t[24] * x3
			a1 += t[25] * x3
			a2 += t[26] * x3
			a3 += t[27] * x3
			a4 += t[28] * x3
			a5 += t[29] * x3
			a6 += t[30] * x3
			a7 += t[31] * x3
			a0 += t[32] * x4
			a1 += t[33] * x4
			a2 += t[34] * x4
			a3 += t[35] * x4
			a4 += t[36] * x4
			a5 += t[37] * x4
			a6 += t[38] * x4
			a7 += t[39] * x4
			a0 += t[40] * x5
			a1 += t[41] * x5
			a2 += t[42] * x5
			a3 += t[43] * x5
			a4 += t[44] * x5
			a5 += t[45] * x5
			a6 += t[46] * x5
			a7 += t[47] * x5
			a0 += t[48] * x6
			a1 += t[49] * x6
			a2 += t[50] * x6
			a3 += t[51] * x6
			a4 += t[52] * x6
			a5 += t[53] * x6
			a6 += t[54] * x6
			a7 += t[55] * x6
			a0 += t[56] * x7
			a1 += t[57] * x7
			a2 += t[58] * x7
			a3 += t[59] * x7
			a4 += t[60] * x7
			a5 += t[61] * x7
			a6 += t[62] * x7
			a7 += t[63] * x7
		}
		out := [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		copy(dst[br*8:], out[:])
	}
}

// rows4 is rows8's 4×4 shape over every block row: 16 straight-line
// statements per full tile into four accumulators.
func (l *BSR) rows4(dst, x []float64) {
	for br := 0; br < l.BlockRows(); br++ {
		var a0, a1, a2, a3 float64
		for k := l.RowPtr[br]; k < l.RowPtr[br+1]; k++ {
			c0 := int(l.BlockCols[k]) * 4
			t := l.Blocks[int(k)*16:][:16]
			if c0+4 > len(x) {
				for cc, xc := range x[c0:] {
					col := t[cc*4:][:4]
					a0 += col[0] * xc
					a1 += col[1] * xc
					a2 += col[2] * xc
					a3 += col[3] * xc
				}
				continue
			}
			xv := x[c0:][:4]
			x0, x1, x2, x3 := xv[0], xv[1], xv[2], xv[3]
			a0 += t[0] * x0
			a1 += t[1] * x0
			a2 += t[2] * x0
			a3 += t[3] * x0
			a0 += t[4] * x1
			a1 += t[5] * x1
			a2 += t[6] * x1
			a3 += t[7] * x1
			a0 += t[8] * x2
			a1 += t[9] * x2
			a2 += t[10] * x2
			a3 += t[11] * x2
			a0 += t[12] * x3
			a1 += t[13] * x3
			a2 += t[14] * x3
			a3 += t[15] * x3
		}
		out := [4]float64{a0, a1, a2, a3}
		copy(dst[br*4:], out[:])
	}
}

// ToDense reconstructs the dense matrix (for tests and round-trips).
// Edge-tile zero padding is dropped.
func (l *BSR) ToDense() *mat.Matrix {
	m := mat.NewMatrix(l.Rows, l.ColsDim)
	b := l.Block
	for br := 0; br < l.BlockRows(); br++ {
		for k := l.RowPtr[br]; k < l.RowPtr[br+1]; k++ {
			c0 := int(l.BlockCols[k]) * b
			tile := l.Blocks[int(k)*b*b : (int(k)+1)*b*b]
			for rr := 0; rr < b; rr++ {
				r := br*b + rr
				if r >= l.Rows {
					break
				}
				for cc := 0; cc < b; cc++ {
					c := c0 + cc
					if c >= l.ColsDim {
						break
					}
					m.Set(r, c, tile[cc*b+rr])
				}
			}
		}
	}
	return m
}

// rowsGeneric scores every block row for the remaining block edges.
func (l *BSR) rowsGeneric(dst, x []float64) {
	b := l.Block
	for br := 0; br < l.BlockRows(); br++ {
		var acc [MaxBlock]float64
		for k := l.RowPtr[br]; k < l.RowPtr[br+1]; k++ {
			c0 := int(l.BlockCols[k]) * b
			t := l.Blocks[int(k)*b*b:][:b*b]
			for cc, xc := range x[c0:min(c0+b, len(x))] {
				for rr, w := range t[cc*b:][:b] {
					acc[rr] += w * xc
				}
			}
		}
		copy(dst[br*b:], acc[:b])
	}
}
