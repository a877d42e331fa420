package sparse

import (
	"fmt"

	"repro/internal/mat"
)

// MaxBlock bounds the supported BSR block edge. The accumulator tiles
// live on the stack (a fixed array in the kernels), so the edge must be
// known small; the pruning strategy uses 4 and 8, the hardware-aligned
// shapes of Kang's accelerator-aware pruning.
const MaxBlock = 16

// BSR is a block-sparse-row view of an out×in weight matrix: the dense
// grid is cut into Block×Block tiles and only tiles containing at least
// one nonzero are stored, each as a dense row-major micro-tile. One
// column index is stored per tile instead of per nonzero — the index
// overhead the CSR gather pays per weight is amortized over Block²
// weights, and the tile's inputs are Block *consecutive* words, so the
// accelerator's I/O gather degenerates to a short streaming read.
//
// Block row br's tiles are Blocks[RowPtr[br]*Block²:RowPtr[br+1]*Block²]
// with block-column indices BlockCols[RowPtr[br]:RowPtr[br+1]] in
// ascending order. Edge tiles (when Rows or ColsDim is not a multiple
// of Block) are zero-padded to full tiles.
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
					tile[rr*block+cc] = w.At(r, c)
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

// BlockDensity reports stored tiles divided by the full tile grid.
func (l *BSR) BlockDensity() float64 {
	total := l.BlockRows() * ((l.ColsDim + l.Block - 1) / l.Block)
	if total == 0 {
		return 0
	}
	return float64(l.BlockCount()) / float64(total)
}

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

// MatVec computes dst = L·x (+ bias when present). Each output row
// accumulates its tiles in ascending block-column order and, within a
// tile, in ascending column order — exactly the order the dense sum
// visits those columns — so the result is bit-identical to the dense
// matvec (and to the CSR kernel) on matrices whose skipped entries are
// exact zeros.
func (l *BSR) MatVec(dst, x []float64) {
	if len(x) != l.ColsDim || len(dst) != l.Rows {
		panic(fmt.Sprintf("sparse: BSR MatVec dimension mismatch: layer %dx%d, x %d, dst %d",
			l.Rows, l.ColsDim, len(x), len(dst)))
	}
	b := l.Block
	for br := 0; br < l.BlockRows(); br++ {
		r0 := br * b
		rn := b
		if r0+rn > l.Rows {
			rn = l.Rows - r0
		}
		var acc [MaxBlock]float64
		l.accumBlockRow(acc[:b], x, l.RowPtr[br], l.RowPtr[br+1])
		for rr := 0; rr < rn; rr++ {
			s := acc[rr]
			if l.Bias != nil {
				s += l.Bias[r0+rr]
			}
			dst[r0+rr] = s
		}
	}
}

// accumBlockRow accumulates tiles [lo,hi) of one block row into acc
// (len = Block), dispatching to the unrolled kernels for the
// hardware-aligned shapes.
func (l *BSR) accumBlockRow(acc, x []float64, lo, hi int32) {
	switch l.Block {
	case 8:
		l.accumBlockRow8(acc, x, lo, hi)
	case 4:
		l.accumBlockRow4(acc, x, lo, hi)
	default:
		l.accumBlockRowGeneric(acc, x, lo, hi)
	}
}

// accumBlockRow8 is the unrolled 8×8 micro-tile kernel: eight
// consecutive inputs are loaded once per tile and reused across the
// tile's eight rows; the inner statements are straight-line so the
// compiler keeps everything in registers. The per-row accumulation
// order (ascending columns within ascending tiles) matches dense.
func (l *BSR) accumBlockRow8(acc, x []float64, lo, hi int32) {
	for k := lo; k < hi; k++ {
		c0 := int(l.BlockCols[k]) * 8
		t := l.Blocks[int(k)*64 : int(k)*64+64]
		if c0+8 <= l.ColsDim {
			xv := x[c0 : c0+8 : c0+8]
			x0, x1, x2, x3 := xv[0], xv[1], xv[2], xv[3]
			x4, x5, x6, x7 := xv[4], xv[5], xv[6], xv[7]
			for rr := 0; rr < 8; rr++ {
				row := t[rr*8 : rr*8+8 : rr*8+8]
				s := acc[rr]
				s += row[0] * x0
				s += row[1] * x1
				s += row[2] * x2
				s += row[3] * x3
				s += row[4] * x4
				s += row[5] * x5
				s += row[6] * x6
				s += row[7] * x7
				acc[rr] = s
			}
			continue
		}
		// right-edge tile: fewer than 8 real columns
		cn := l.ColsDim - c0
		for rr := 0; rr < 8; rr++ {
			s := acc[rr]
			for j := 0; j < cn; j++ {
				s += t[rr*8+j] * x[c0+j]
			}
			acc[rr] = s
		}
	}
}

// accumBlockRow4 is the unrolled 4×4 micro-tile kernel.
func (l *BSR) accumBlockRow4(acc, x []float64, lo, hi int32) {
	for k := lo; k < hi; k++ {
		c0 := int(l.BlockCols[k]) * 4
		t := l.Blocks[int(k)*16 : int(k)*16+16]
		if c0+4 <= l.ColsDim {
			xv := x[c0 : c0+4 : c0+4]
			x0, x1, x2, x3 := xv[0], xv[1], xv[2], xv[3]
			for rr := 0; rr < 4; rr++ {
				row := t[rr*4 : rr*4+4 : rr*4+4]
				s := acc[rr]
				s += row[0] * x0
				s += row[1] * x1
				s += row[2] * x2
				s += row[3] * x3
				acc[rr] = s
			}
			continue
		}
		cn := l.ColsDim - c0
		for rr := 0; rr < 4; rr++ {
			s := acc[rr]
			for j := 0; j < cn; j++ {
				s += t[rr*4+j] * x[c0+j]
			}
			acc[rr] = s
		}
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
					m.Set(r, c, tile[rr*b+cc])
				}
			}
		}
	}
	return m
}

// accumBlockRowGeneric handles the remaining block edges.
func (l *BSR) accumBlockRowGeneric(acc, x []float64, lo, hi int32) {
	b := l.Block
	for k := lo; k < hi; k++ {
		c0 := int(l.BlockCols[k]) * b
		cn := b
		if c0+cn > l.ColsDim {
			cn = l.ColsDim - c0
		}
		t := l.Blocks[int(k)*b*b : (int(k)+1)*b*b]
		for rr := 0; rr < b; rr++ {
			s := acc[rr]
			for j := 0; j < cn; j++ {
				s += t[rr*b+j] * x[c0+j]
			}
			acc[rr] = s
		}
	}
}
