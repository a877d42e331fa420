// Package sparse provides the compressed representation of a pruned
// fully-connected layer as the DNN accelerator sees it: per-neuron runs
// of (weight, input-index) pairs, the format whose index-driven input
// gather causes the I/O-buffer bank conflicts analyzed in Section III-D
// of the paper. Layer is that storage model; it has no compute method.
//
// The package also carries the real compute layouts that internal/dnn's
// compiled inference plans execute for pruned layers: SELL for
// unstructured sparsity, the CSR rows sorted by length and packed four
// to a YMM group, and BSR for block sparsity. Each accumulates an output
// neuron's nonzeros in ascending column order, the same order the dense
// sum visits them, with separately rounded multiplies and adds and the
// bias last, so skipping the exact zeros a pruning mask leaves behind
// never perturbs the floating-point accumulation and the sparse result
// is bit-identical to the dense one, on the AVX and the portable
// bodies alike.
package sparse

import "repro/internal/mat"

// Layer is a CSR-like sparse view of an out×in weight matrix.
// Row r's nonzeros are Weights[RowPtr[r]:RowPtr[r+1]] with column
// indices Cols[RowPtr[r]:RowPtr[r+1]].
type Layer struct {
	Rows, ColsDim int
	RowPtr        []int32
	Cols          []int32
	Weights       []float64
	Bias          []float64
}

// FromDense compresses a dense matrix, dropping exact zeros (which is
// what a pruning mask leaves behind). bias may be nil. A first counting
// pass fixes every RowPtr and the total NNZ, so Cols and Weights are
// allocated exactly once at their final size instead of growing by
// append.
func FromDense(w *mat.Matrix, bias []float64) *Layer {
	l := &Layer{
		Rows:    w.Rows,
		ColsDim: w.Cols,
		RowPtr:  make([]int32, w.Rows+1),
	}
	if bias != nil {
		l.Bias = append([]float64(nil), bias...)
	}
	nnz := int32(0)
	for r := 0; r < w.Rows; r++ {
		for _, v := range w.Row(r) {
			if v != 0 {
				nnz++
			}
		}
		l.RowPtr[r+1] = nnz
	}
	l.Cols = make([]int32, nnz)
	l.Weights = make([]float64, nnz)
	k := 0
	for r := 0; r < w.Rows; r++ {
		for c, v := range w.Row(r) {
			if v != 0 {
				l.Cols[k] = int32(c)
				l.Weights[k] = v
				k++
			}
		}
	}
	return l
}

// NNZ reports the number of stored nonzeros.
func (l *Layer) NNZ() int { return len(l.Weights) }

// Density reports NNZ divided by the dense weight count.
func (l *Layer) Density() float64 {
	total := l.Rows * l.ColsDim
	if total == 0 {
		return 0
	}
	return float64(l.NNZ()) / float64(total)
}

// RowNNZ reports the number of nonzeros in row r.
func (l *Layer) RowNNZ(r int) int { return int(l.RowPtr[r+1] - l.RowPtr[r]) }

// Row returns the weights and column indices of row r (aliases, do not
// modify).
func (l *Layer) Row(r int) (weights []float64, cols []int32) {
	lo, hi := l.RowPtr[r], l.RowPtr[r+1]
	return l.Weights[lo:hi], l.Cols[lo:hi]
}

// ToDense reconstructs the dense matrix (for tests and round-trips).
func (l *Layer) ToDense() *mat.Matrix {
	m := mat.NewMatrix(l.Rows, l.ColsDim)
	for r := 0; r < l.Rows; r++ {
		w, cols := l.Row(r)
		for k, c := range cols {
			m.Set(r, int(c), w[k])
		}
	}
	return m
}

// StorageBits estimates the model storage in bits for the accelerator's
// weight buffer: each nonzero carries a weight (weightBits) plus an
// input index (indexBits), and each row a bias. This mirrors the
// paper's note that pruned model size must account for the indices.
func (l *Layer) StorageBits(weightBits, indexBits int) int64 {
	return int64(l.NNZ())*int64(weightBits+indexBits) + int64(l.Rows)*int64(weightBits)
}
