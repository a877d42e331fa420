package dnn

import (
	"repro/internal/qkern"
	"repro/internal/sparse"
)

// Kernel is one compiled per-layer compute implementation behind a
// Plan. The plan owns the immutable weights (in whatever layout the
// kernel wants — dense float, CSR, int8 codes); all mutable per-call
// state lives in the scratch value, so one kernel instance is shared
// read-only by every Exec over the plan, exactly like the Plan itself.
//
// The float kernels ("dense", "sparse", "bsr") are bit-identical to
// each other by construction; the integer kernels ("int8", "sparse_int8")
// are deterministic but lossy, bound by the error budget in
// docs/QUANT.md instead. Adding a kernel means implementing these three
// methods — kernel selection (Compile), timing (the per-name
// dnn.kernel_seconds family), Kernels()/Describe readouts, and Exec
// scratch plumbing all key off Name() and NewScratch() and need no
// changes.
type Kernel interface {
	// Name identifies the kernel in Plan.Kernels/Describe and labels
	// its dnn.kernel_seconds timer ("dense", "sparse", "bsr", "int8",
	// "sparse_int8"; "-" for non-FC passthrough layers).
	Name() string
	// NewScratch allocates the kernel's per-Exec mutable state, or
	// returns nil when the kernel needs none. One scratch value serves
	// one goroutine.
	NewScratch() any
	// MatVec evaluates the layer for one frame: dst = f(in).
	MatVec(scratch any, dst, in []float64)
}

// layerKernel is the passthrough for non-FC layers (pooling, renorm):
// it evaluates the layer's own Forward and has no weights to re-lay-out.
type layerKernel struct{ l Layer }

func (k layerKernel) Name() string    { return "-" }
func (k layerKernel) NewScratch() any { return nil }
func (k layerKernel) MatVec(_ any, dst, in []float64) {
	k.l.Forward(dst, in)
}

// denseKernel is the float dense matvec: the FC layer's own Forward
// (W·x + b) over the row-major float64 weight matrix. mat.MatVec is
// row-blocked — four output rows per pass over the input, four
// independent add chains — while each row still sums its columns in
// ascending order, which is the order the sparse and bsr kernels
// reproduce.
type denseKernel struct{ fc *FC }

func (k denseKernel) Name() string    { return "dense" }
func (k denseKernel) NewScratch() any { return nil }
func (k denseKernel) MatVec(_ any, dst, in []float64) {
	k.fc.Forward(dst, in)
}

// csrKernel is the float CSR sparse kernel. Its ascending-column
// accumulation makes it bit-identical to the dense sum (pinned by
// sparse package tests), so dense/sparse selection is invisible to
// decode results.
type csrKernel struct{ csr *sparse.Layer }

func (k csrKernel) Name() string    { return "sparse" }
func (k csrKernel) NewScratch() any { return nil }
func (k csrKernel) MatVec(_ any, dst, in []float64) {
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

func (k bsrKernel) Name() string    { return "bsr" }
func (k bsrKernel) NewScratch() any { return nil }
func (k bsrKernel) MatVec(_ any, dst, in []float64) {
	k.bsr.MatVec(dst, in)
}

// int8Kernel is the dense integer kernel: int8 weight codes under one
// per-layer symmetric scale, activations quantized per frame into the
// scratch, int32 accumulation, one dequantization per output
// (internal/qkern). Deterministic, but approximate — covered by the
// error budget, not bit-identity.
type int8Kernel struct{ d *qkern.Dense }

func (k int8Kernel) Name() string    { return "int8" }
func (k int8Kernel) NewScratch() any { return &qkern.Scratch{} }
func (k int8Kernel) MatVec(s any, dst, in []float64) {
	k.d.MatVec(s.(*qkern.Scratch), dst, in)
}

// sparseInt8Kernel is the pruned+quantized hybrid — Deep Compression's
// deployment regime: the float CSR view's exact index structure with
// int8 codes in place of float64 values.
type sparseInt8Kernel struct{ c *qkern.CSR }

func (k sparseInt8Kernel) Name() string    { return "sparse_int8" }
func (k sparseInt8Kernel) NewScratch() any { return &qkern.Scratch{} }
func (k sparseInt8Kernel) MatVec(s any, dst, in []float64) {
	k.c.MatVec(s.(*qkern.Scratch), dst, in)
}
