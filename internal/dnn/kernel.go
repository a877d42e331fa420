package dnn

import (
	"repro/internal/mat"
	"repro/internal/sparse"
)

// Kernel is one compiled per-layer compute implementation behind a
// Plan. The kernel owns the layer's immutable weights in whatever
// layout it wants (dense panels, SELL-4 rows, BSR tiles) and keeps no per-call
// state, so one kernel instance is shared read-only by every Exec over
// the plan, exactly like the Plan itself.
//
// The three FC kernels ("dense", "sparse", "bsr") are bit-identical to
// each other by construction. Adding a kernel means implementing these
// two methods — kernel selection (Compile), timing (the per-name
// dnn.kernel_seconds family) and the Kernels()/Describe readouts all
// key off Name() and need no changes.
type Kernel interface {
	// Name identifies the kernel in Plan.Kernels/Describe and labels
	// its dnn.kernel_seconds timer ("dense", "sparse", "bsr"; "-" for
	// non-FC passthrough layers).
	Name() string
	// MatVec evaluates the layer for one frame: dst = f(in).
	MatVec(dst, in []float64)
}

// layerKernel is the passthrough for non-FC layers (pooling, renorm):
// it evaluates the layer's own Forward and has no weights to re-lay-out.
type layerKernel struct{ l Layer }

func (k layerKernel) Name() string { return "-" }
func (k layerKernel) MatVec(dst, in []float64) {
	k.l.Forward(dst, in)
}

// denseKernel is the float dense matvec over the layer's weights and
// bias packed into 16-row panels (mat.Panels). The panels are a
// snapshot, like the SELL and BSR layouts: the kernel never reads the
// FC layer again. Each output row still sums its columns in ascending
// order with separately rounded multiplies and adds and the bias last,
// added before the store, whether the panel body is AVX or portable
// Go, which is the order the sparse and bsr kernels reproduce.
type denseKernel struct{ w *mat.Panels }

func (k denseKernel) Name() string { return "dense" }
func (k denseKernel) MatVec(dst, in []float64) {
	k.w.MatVec(dst, in)
}

// csrKernel is the float unstructured-sparse kernel. It keeps the
// layer's CSR rows in one layout, SELL-4 (sparse.SELL): rows sorted by
// nonzero count and packed four to a group, so each step of a group is
// one YMM multiply and add over four rows' gathered inputs on AVX
// machines, and four accumulators in portable Go elsewhere. Every row
// still sums its nonzeros in ascending column order with separately
// rounded multiplies and adds and the bias last, so it is bit-identical
// to the dense sum (pinned by sparse package tests) and dense/sparse
// selection is invisible to decode results.
type csrKernel struct{ sell *sparse.SELL }

func (k csrKernel) Name() string { return "sparse" }
func (k csrKernel) MatVec(dst, in []float64) {
	k.sell.MatVec(dst, in)
}

// bsrKernel is the float block-sparse kernel: dense b×b micro-tiles,
// stored column-major, over the BSR view built from a block-pruned
// layer. For b = 8 on AVX machines each tile column is one broadcast
// input feeding two YMM registers; elsewhere straight-line portable Go
// runs over the same layout. Like the sparse kernel it accumulates every
// row in the dense column order (ascending tiles, ascending columns
// within a tile, no FMA, bias last), so it is bit-identical to dense
// — but it pays one index per tile instead of one per nonzero, which
// is where it beats CSR at equal sparsity.
type bsrKernel struct{ bsr *sparse.BSR }

func (k bsrKernel) Name() string { return "bsr" }
func (k bsrKernel) MatVec(dst, in []float64) {
	k.bsr.MatVec(dst, in)
}
