// Package qkern implements the integer compute kernels behind the
// `int8` inference backend: per-layer affine quantization (scale +
// zero point — symmetric for weights, asymmetric per frame for
// activations) and integer matrix-vector products with int32
// accumulators that dequantize once at the layer boundary. It is the
// quantized sibling of internal/sparse — internal/dnn's compiled
// plans wrap both behind the same per-layer kernel interface — and
// the single source of truth for the int8 affine arithmetic.
//
// The representation is Deep Compression's deployment regime (the
// paper's reference [2], and PAPERS.md's Accelerator-Aware Pruning):
// weights stored as int8 with one float scale per layer, activations
// quantized on the fly per frame to ActQMax-bounded codes, products
// accumulated exactly in int32. Weights carry the model's memory
// footprint, so they get the aggressive 8-bit grid; activations are
// transient per-frame scratch, so they get the finer 12-bit grid that
// keeps top-1 posteriors inside the error budget on heavily pruned
// (flat-scored) models — see docs/QUANT.md for the bit-width
// rationale. Unlike the float CSR kernel — whose ascending-column
// accumulation is bit-identical to the dense sum — a quantized kernel
// is inherently lossy, so its contract is an error budget (top-1
// agreement, WER delta) rather than bit identity.
package qkern

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// QMax is the symmetric weight quantization range: codes span
// [-QMax, QMax]. -128 is left unused so the range is symmetric around
// the zero point and negation never overflows.
const QMax = 127

// ActQMax bounds the activation codes: [-ActQMax, ActQMax], a 12-bit
// grid. Activation codes are held in widened scratch (not stored with
// the model), so they are not limited to 8 bits; 12 is the sweet spot
// where activation rounding error stops mattering against the weight
// grid's while QMax·ActQMax·cols still fits an int32 accumulator for
// any plausible layer width (see maxAccumCols).
const ActQMax = 2047

// maxAccumCols is the largest reduction length for which
// QMax·ActQMax-magnitude products cannot overflow an int32
// accumulator: QMax · ActQMax · maxAccumCols < 2³¹. Every layer in
// this repo is orders of magnitude below it.
const maxAccumCols = (1<<31 - 1) / (QMax * ActQMax)

// Params are the per-tensor affine quantization parameters. The
// quantized code of x is round(x/Scale) + ZeroPoint.
//
// Weight tensors always use the symmetric special case ZeroPoint ==
// 0: a symmetric grid maps real 0.0 to code 0 exactly, which keeps
// pruned (exactly-zero) weights at zero codes — the property that
// lets the CSR hybrid reuse the float kernel's index structure
// unchanged and keeps dnnsim's sparsity analysis valid. Activations
// use the general asymmetric form (ActParamsOf), whose zero point the
// kernels fold out of the accumulated products with precomputed row
// sums.
type Params struct {
	Scale     float64
	ZeroPoint int32
}

// ParamsOf computes symmetric per-tensor weight parameters for
// values: Scale = max|v| / QMax, ZeroPoint = 0. An all-zero tensor
// gets Scale 0 (every code and every dequantized value is 0). Weights
// always use this grid: symmetry is what maps pruned zeros to code 0.
func ParamsOf(values []float64) Params {
	var maxAbs float64
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return Params{}
	}
	return Params{Scale: maxAbs / QMax}
}

// ActParamsOf computes asymmetric per-frame parameters for an
// activation vector: the grid spans [min(x,0), max(x,0)], with the
// zero point placed so real 0.0 still dequantizes to exactly 0.
// Activations need no pruned-zero preservation, and the hidden
// activations after p-norm pooling are one-sided, so covering the
// actual range instead of ±max|x| roughly doubles their resolution.
// Anchoring the range at 0 also bounds the zero point to
// [-ActQMax, ActQMax].
func ActParamsOf(x []float64) Params {
	var lo, hi float64 // always include 0
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return Params{}
	}
	scale := (hi - lo) / (2 * ActQMax)
	zp := math.RoundToEven(-(lo + hi) / (2 * scale))
	switch {
	case zp > ActQMax:
		zp = ActQMax
	case zp < -ActQMax:
		zp = -ActQMax
	}
	return Params{Scale: scale, ZeroPoint: int32(zp)}
}

// Quantize writes the int8 weight codes of x into q (len(q) ==
// len(x)): round-to-nearest-even of x/Scale plus the zero point,
// clamped to [-QMax, QMax]. With Scale 0 every code is the zero
// point. This is the plain per-value grid; the kernel builders use
// QuantizeRow, which additionally shapes the rounding error.
func (p Params) Quantize(q []int8, x []float64) {
	if len(q) != len(x) {
		panic(fmt.Sprintf("qkern: Quantize dst %d != src %d", len(q), len(x)))
	}
	if p.Scale == 0 {
		for i := range q {
			q[i] = int8(clampQ(float64(p.ZeroPoint)))
		}
		return
	}
	inv := 1 / p.Scale
	zp := float64(p.ZeroPoint)
	for i, v := range x {
		q[i] = int8(clampQ(math.RoundToEven(v*inv) + zp))
	}
}

func clampQ(c float64) int32 {
	switch {
	case c > QMax:
		return QMax
	case c < -QMax:
		return -QMax
	}
	return int32(c)
}

// Dequantize returns the real value of weight code c.
func (p Params) Dequantize(c int8) float64 {
	return float64(int32(c)-p.ZeroPoint) * p.Scale
}

// QuantizeAct writes the activation codes of x into q on the
// asymmetric [-ActQMax, ActQMax] grid. Codes live in widened int32
// scratch: the kernels read them directly, so no 8-bit storage round
// trip ever happens.
func (p Params) QuantizeAct(q []int32, x []float64) {
	if len(q) != len(x) {
		panic(fmt.Sprintf("qkern: QuantizeAct dst %d != src %d", len(q), len(x)))
	}
	if p.Scale == 0 {
		for i := range q {
			q[i] = p.ZeroPoint
		}
		return
	}
	inv := 1 / p.Scale
	zp := float64(p.ZeroPoint)
	for i, v := range x {
		c := math.RoundToEven(v*inv) + zp
		switch {
		case c > ActQMax:
			c = ActQMax
		case c < -ActQMax:
			c = -ActQMax
		}
		q[i] = int32(c)
	}
}

// DequantizeAct returns the real value of activation code c.
func (p Params) DequantizeAct(c int32) float64 {
	return float64(c-p.ZeroPoint) * p.Scale
}

// QuantizeRow writes the codes of one weight row with first-order
// error feedback (sigma-delta rounding): each code absorbs the
// accumulated rounding residual of the row so far, so the running sum
// of dequantized weights tracks the running float sum within half a
// step. Round-to-nearest minimizes each weight's own error but lets
// row error accumulate as a random walk; feedback cancels the
// correlated component, which is what the dot product against
// correlated activations (e.g. spliced context frames) actually sees.
// Exact zeros — what a pruning mask leaves behind — keep code 0 and
// carry no residual, so a CSR build that only sees a row's stored
// nonzeros produces bit-identical codes to the dense build (the
// skipped zeros never touch the feedback state). Symmetric grids only
// (weights); panics on a nonzero zero point.
func (p Params) QuantizeRow(q []int8, w []float64) {
	if len(q) != len(w) {
		panic(fmt.Sprintf("qkern: QuantizeRow dst %d != src %d", len(q), len(w)))
	}
	if p.ZeroPoint != 0 {
		panic("qkern: QuantizeRow requires a symmetric grid")
	}
	if p.Scale == 0 {
		for i := range q {
			q[i] = 0
		}
		return
	}
	inv := 1 / p.Scale
	var u float64 // accumulated rounding residual, real units
	for i, v := range w {
		if v == 0 {
			q[i] = 0
			continue
		}
		c := math.RoundToEven((v + u) * inv)
		switch {
		case c > QMax:
			c = QMax
		case c < -QMax:
			c = -QMax
		}
		q[i] = int8(c)
		u += v - c*p.Scale
	}
}

// Dense is an out×in weight matrix stored as int8 codes under one
// symmetric Params, with float64 biases applied after dequantization.
// Like sparse.Layer it is shared read-only once built; per-call
// scratch lives in a Scratch.
type Dense struct {
	Rows, Cols int
	Q          []int8 // row-major, len Rows*Cols
	P          Params
	Bias       []float64 // nil or len Rows
	// RowSum[r] is the sum of row r's codes, precomputed so the
	// activation zero point can be folded out of the accumulated dot
	// product in O(1) per output: Σ w·(x-zp) = Σ w·x − zp·Σ w.
	RowSum []int32
}

// FromMatrix quantizes a dense float weight matrix (bias may be nil;
// it is copied and stays float64).
func FromMatrix(w *mat.Matrix, bias []float64) *Dense {
	if w.Cols > maxAccumCols {
		panic(fmt.Sprintf("qkern: %d columns would overflow the int32 accumulator (max %d)", w.Cols, maxAccumCols))
	}
	d := &Dense{
		Rows: w.Rows, Cols: w.Cols,
		Q: make([]int8, len(w.Data)),
		P: ParamsOf(w.Data),
	}
	d.RowSum = make([]int32, d.Rows)
	for r := 0; r < d.Rows; r++ {
		row := d.Q[r*d.Cols : (r+1)*d.Cols]
		d.P.QuantizeRow(row, w.Data[r*d.Cols:(r+1)*d.Cols])
		var s int32
		for _, c := range row {
			s += int32(c)
		}
		d.RowSum[r] = s
	}
	if bias != nil {
		d.Bias = append([]float64(nil), bias...)
	}
	return d
}

// Scratch holds the per-caller activation-quantization buffers of the
// integer kernels. One Scratch serves one goroutine; buffers grow on
// demand and are reused across calls. Codes are kept widened to int32
// — the dot kernels read them without a sign-extension per element,
// which is what puts the int8 backend ahead of the float dense path.
type Scratch struct {
	q []int32 // quantized input frame
}

// frame quantizes x into the reused buffer with asymmetric
// per-frame parameters and returns the codes plus those parameters.
func (s *Scratch) frame(x []float64) ([]int32, Params) {
	if cap(s.q) < len(x) {
		s.q = make([]int32, len(x))
	}
	q := s.q[:len(x)]
	p := ActParamsOf(x)
	p.QuantizeAct(q, x)
	return q, p
}

// dot accumulates the int8-weight × activation-code dot product in
// int32. The 8-way unrolling into four independent accumulators keeps
// enough adds in flight to stay ahead of the dense float path; the
// leading reslice of q lets the compiler drop its bounds checks.
func dot(w []int8, q []int32) int32 {
	q = q[:len(w)]
	var a0, a1, a2, a3 int32
	i := 0
	for ; i <= len(w)-8; i += 8 {
		a0 += int32(w[i])*q[i] + int32(w[i+4])*q[i+4]
		a1 += int32(w[i+1])*q[i+1] + int32(w[i+5])*q[i+5]
		a2 += int32(w[i+2])*q[i+2] + int32(w[i+6])*q[i+6]
		a3 += int32(w[i+3])*q[i+3] + int32(w[i+7])*q[i+7]
	}
	for ; i < len(w); i++ {
		a0 += int32(w[i]) * q[i]
	}
	return a0 + a1 + a2 + a3
}

// MatVec computes dst = dequant(Q·quant(x)) (+ bias): x is quantized
// once into s, every product accumulates in int32, the activation
// zero point is folded out with the precomputed row sums (int64, so
// the correction can never overflow), and each output is dequantized
// exactly once with the folded weight·activation scale.
func (d *Dense) MatVec(s *Scratch, dst, x []float64) {
	if len(x) != d.Cols || len(dst) != d.Rows {
		panic(fmt.Sprintf("qkern: MatVec dimension mismatch: layer %dx%d, x %d, dst %d",
			d.Rows, d.Cols, len(x), len(dst)))
	}
	q, xp := s.frame(x)
	step := d.P.Scale * xp.Scale
	zp := int64(xp.ZeroPoint)
	for r := 0; r < d.Rows; r++ {
		acc := dot(d.Q[r*d.Cols:(r+1)*d.Cols], q)
		v := float64(int64(acc)-zp*int64(d.RowSum[r])) * step
		if d.Bias != nil {
			v += d.Bias[r]
		}
		dst[r] = v
	}
}

// CSR is the sparse-int8 hybrid: the float CSR kernel's exact index
// structure (row pointers + column indices) with int8 weight codes in
// place of float64 weights — Deep Compression's deployment regime for
// pruned-then-quantized layers. Small nonzeros may quantize to code
// 0; they keep their slots, so the structure (and any analysis over
// it) is identical to the float CSR view it was built from.
type CSR struct {
	Rows, ColsDim int
	RowPtr        []int32
	Cols          []int32
	Q             []int8
	P             Params
	Bias          []float64
	// RowSum[r] is the sum of row r's stored codes (zeros outside the
	// structure contribute nothing), for the same zero-point folding
	// as Dense.RowSum.
	RowSum []int32
}

// FromCSR quantizes the weights of a float CSR layer under one
// symmetric Params, aliasing the RowPtr/Cols index structure (shared
// read-only, like the layer itself) and copying the bias. Each row's
// stored values are exactly the dense row's nonzeros in column order,
// so QuantizeRow's error feedback visits them in the same sequence as
// a dense build and the codes come out bit-identical.
func FromCSR(l *sparse.Layer) *CSR {
	if l.ColsDim > maxAccumCols {
		panic(fmt.Sprintf("qkern: %d columns would overflow the int32 accumulator (max %d)", l.ColsDim, maxAccumCols))
	}
	c := &CSR{
		Rows: l.Rows, ColsDim: l.ColsDim,
		RowPtr: l.RowPtr, Cols: l.Cols,
		Q: make([]int8, len(l.Weights)),
		P: ParamsOf(l.Weights),
	}
	c.RowSum = make([]int32, c.Rows)
	for r := 0; r < c.Rows; r++ {
		c.P.QuantizeRow(c.Q[c.RowPtr[r]:c.RowPtr[r+1]], l.Weights[c.RowPtr[r]:c.RowPtr[r+1]])
		var s int32
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			s += int32(c.Q[k])
		}
		c.RowSum[r] = s
	}
	if l.Bias != nil {
		c.Bias = append([]float64(nil), l.Bias...)
	}
	return c
}

// NNZ reports the number of stored codes (including any that
// quantized to 0).
func (c *CSR) NNZ() int { return len(c.Q) }

// MatVec computes dst = dequant(C·quant(x)) (+ bias), gathering
// quantized inputs by column index and accumulating in int32.
func (c *CSR) MatVec(s *Scratch, dst, x []float64) {
	if len(x) != c.ColsDim || len(dst) != c.Rows {
		panic(fmt.Sprintf("qkern: CSR MatVec dimension mismatch: layer %dx%d, x %d, dst %d",
			c.Rows, c.ColsDim, len(x), len(dst)))
	}
	q, xp := s.frame(x)
	step := c.P.Scale * xp.Scale
	zp := int64(xp.ZeroPoint)
	for r := 0; r < c.Rows; r++ {
		lo, hi := c.RowPtr[r], c.RowPtr[r+1]
		var acc int32
		for k := lo; k < hi; k++ {
			acc += int32(c.Q[k]) * q[c.Cols[k]]
		}
		v := float64(int64(acc)-zp*int64(c.RowSum[r])) * step
		if c.Bias != nil {
			v += c.Bias[r]
		}
		dst[r] = v
	}
}
