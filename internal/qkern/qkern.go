// Package qkern is the reproduction's int8 forward pass: per-layer
// affine quantization (scale + zero point — symmetric for weights,
// asymmetric per frame for activations), an integer matrix-vector
// product with int32 accumulators that dequantizes once at the layer
// boundary, and Compile/Net, which run a whole dnn.Network with every
// FC layer on that product. It is the single source of truth for the
// int8 arithmetic behind the int8 experiment (internal/experiments)
// and is not a serving backend: docs/QUANT.md records why.
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
// rationale. Unlike the float kernels — whose ascending-column
// accumulation makes dense, CSR and BSR bit-identical — a quantized
// pass is inherently lossy, so its contract is an error budget (top-1
// agreement, WER delta) rather than bit identity.
package qkern

import (
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/mat"
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
// pruned (exactly-zero) weights at zero codes, so quantizing never
// changes a layer's sparsity pattern. Activations use the general
// asymmetric form (ActParamsOf), whose zero point the kernel folds out
// of the accumulated products with precomputed row sums.
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
// carry no residual, so a row's codes depend only on its nonzeros in
// column order: the skipped zeros never touch the feedback state.
// Symmetric grids only (weights); panics on a nonzero zero point.
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
// It is read-only once built; per-call scratch lives in a Scratch.
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

// Scratch holds the per-caller activation-quantization buffer of the
// integer kernel. One Scratch serves one goroutine; the buffer grows
// on demand and is reused across calls. Codes are kept widened to
// int32 so the dot kernel reads them without a sign-extension per
// element.
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
// four add chains in flight; the leading reslice of q lets the
// compiler drop its bounds checks. Integer sums are exact, so the
// order of accumulation cannot change the result.
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

// Net is a dnn.Network compiled for the int8 forward pass: every FC
// layer runs Dense.MatVec over its quantized weights, every other
// layer (pooling, renorm) its own float Forward, and the pass ends in
// a float log-softmax. A Net owns its activation and quantization
// scratch, so it is single-goroutine; compile one per goroutine.
type Net struct {
	layers []dnn.Layer
	fcs    []*Dense    // fcs[i] is layer i's quantized weights; nil for non-FC layers
	acts   [][]float64 // acts[i] is layer i's output
	s      Scratch
}

// Compile quantizes every FC layer of net. The network is only read,
// and later changes to its weights are not seen by the returned Net.
// It panics, like FromMatrix, on a layer wider than the int32
// accumulator allows.
func Compile(net *dnn.Network) *Net {
	n := &Net{
		layers: net.Layers,
		fcs:    make([]*Dense, len(net.Layers)),
		acts:   make([][]float64, len(net.Layers)),
	}
	for i, l := range net.Layers {
		if fc, ok := l.(*dnn.FC); ok {
			n.fcs[i] = FromMatrix(fc.W, fc.B)
		}
		n.acts[i] = make([]float64, l.OutDim())
	}
	return n
}

// Logits computes the pre-softmax outputs for one input frame. The
// returned slice is reused by the next call; copy it to retain.
func (n *Net) Logits(in []float64) []float64 {
	x := in
	for i, l := range n.layers {
		if d := n.fcs[i]; d != nil {
			d.MatVec(&n.s, n.acts[i], x)
		} else {
			l.Forward(n.acts[i], x)
		}
		x = n.acts[i]
	}
	return x
}

// LogPosteriors writes the log-softmax of the frame's logits into dst:
// the acoustic scores the Viterbi search consumes.
func (n *Net) LogPosteriors(dst, in []float64) {
	mat.LogSoftmax(dst, n.Logits(in))
}
