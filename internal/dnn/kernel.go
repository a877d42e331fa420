package dnn

import "repro/internal/sparse"

// Kernel is one compiled per-layer compute implementation behind a
// Plan. The kernel owns the layer's immutable weights in whatever
// layout it wants (dense rows, CSR, BSR tiles) and keeps no per-call
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

// denseKernel is the float dense matvec: the FC layer's own Forward
// (W·x + b) over the row-major float64 weight matrix. mat.MatVec is
// row-blocked — four output rows per pass over the input, four
// independent add chains — while each row still sums its columns in
// ascending order, which is the order the sparse and bsr kernels
// reproduce.
type denseKernel struct{ fc *FC }

func (k denseKernel) Name() string { return "dense" }
func (k denseKernel) MatVec(dst, in []float64) {
	k.fc.Forward(dst, in)
}

// csrKernel is the float CSR sparse kernel. Its ascending-column
// accumulation makes it bit-identical to the dense sum (pinned by
// sparse package tests), so dense/sparse selection is invisible to
// decode results.
type csrKernel struct{ csr *sparse.Layer }

func (k csrKernel) Name() string { return "sparse" }
func (k csrKernel) MatVec(dst, in []float64) {
	k.csr.MatVec(dst, in)
}

// bsrKernel is the float block-sparse kernel: dense b×b micro-tiles
// over the BSR view built from a block-pruned layer. Like the CSR
// kernel it accumulates in the dense column order (ascending tiles,
// ascending columns within a tile), so it is bit-identical to dense —
// but it pays one index per tile instead of one per nonzero and its
// inner loops are unrolled straight-line over contiguous inputs, which
// is where it beats CSR at equal sparsity.
type bsrKernel struct{ bsr *sparse.BSR }

func (k bsrKernel) Name() string { return "bsr" }
func (k bsrKernel) MatVec(dst, in []float64) {
	k.bsr.MatVec(dst, in)
}
