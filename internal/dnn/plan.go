package dnn

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Backend names an acoustic-scoring kernel policy for compiled
// inference plans.
type Backend string

const (
	// BackendAuto picks per FC layer: below the plan's density
	// threshold, the BSR block-sparse kernel when the layer carries
	// block-pruning metadata (FC.BlockSize > 0) and the CSR sparse
	// kernel otherwise; the dense matvec above the threshold. All three
	// are bit-identical, so the choice is invisible to decode results.
	BackendAuto Backend = "auto"
	// BackendDense forces the dense matvec for every FC layer.
	BackendDense Backend = "dense"
	// BackendSparse forces the CSR sparse kernel for every FC layer.
	BackendSparse Backend = "sparse"
	// BackendBSR forces the BSR block-sparse kernel for every FC layer.
	// Layers without block metadata (unstructured or dense) are tiled at
	// DefaultBSRBlock — still bit-identical, but only block-pruned
	// layers have empty tiles to skip, so forcing BSR elsewhere is a
	// measurement tool, not a win.
	BackendBSR Backend = "bsr"
)

// ParseBackend validates a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case BackendAuto, BackendDense, BackendSparse, BackendBSR:
		return Backend(s), nil
	case "":
		return BackendAuto, nil
	}
	return "", fmt.Errorf("dnn: unknown backend %q (want one of auto, dense, sparse, bsr)", s)
}

// DefaultBSRBlock is the tile edge used when BackendBSR is forced on a
// layer without block-pruning metadata.
const DefaultBSRBlock = 8

// DefaultDensityThreshold is the weight density at or below which
// BackendAuto selects a sparse kernel. CSR pays an index load and a
// gathered input read per nonzero, so it only wins once enough of the
// dense row is skippable; ~1/3 density is comfortably past breakeven
// on every machine this was measured on, while the paper's 70/80/90%
// pruning levels sit far below it.
const DefaultDensityThreshold = 1.0 / 3

// PlanConfig controls kernel selection when compiling a plan.
type PlanConfig struct {
	// Backend is the kernel policy (default BackendAuto).
	Backend Backend
}

// planLayer is one compiled execution step: the original layer plus,
// for FC layers, the chosen kernel (holding the weights in its own
// layout), the per-kernel timer resolved at compile time, and (when
// compiled) the CSR view.
type planLayer struct {
	layer   Layer
	fc      *FC           // nil for pooling/renorm layers
	csr     *sparse.Layer // compiled CSR; non-nil for every masked FC
	bsr     *sparse.BSR   // compiled BSR; non-nil for block-pruned FCs and bsr kernels
	kern    Kernel        // the compute implementation; never nil
	timer   *obs.Timer    // dnn.kernel_seconds child for kern (layer timer for non-FC)
	density float64       // NNZ / weight count at compile time
}

// Plan is a compiled inference plan: one immutable kernel schedule
// built from a snapshot of a Network's weights. A Plan selects one
// Kernel per layer — float dense, CSR sparse or BSR block-sparse,
// bit-identical to each other by construction — and pre-computes the
// CSR views so consumers like the accelerator simulator never
// re-compress a layer.
//
// Ownership contract (DESIGN.md §6c): a Plan is shared read-only — any
// number of goroutines may execute it concurrently, each through its
// own Exec, which owns all mutable scratch (the activations). The Plan
// does not observe later mutations of the source Network; retraining,
// pruning or quantizing the network invalidates previously compiled
// plans (Network.Plan recompiles automatically, hand-compiled plans
// must be rebuilt by the caller).
type Plan struct {
	layers []planLayer
	inDim  int
	outDim int
}

// Compile builds a plan from the network's current weights under cfg.
// The network is only read; the returned plan holds no reference to
// the network's scratch state.
func Compile(net *Network, cfg PlanConfig) *Plan {
	if cfg.Backend == "" {
		cfg.Backend = BackendAuto
	}
	p := &Plan{inDim: net.InDim(), outDim: net.OutDim()}
	for _, l := range net.Layers {
		pl := planLayer{layer: l, density: 1}
		if fc, ok := l.(*FC); ok {
			pl.fc = fc
			if n := fc.WeightCount(); n > 0 {
				pl.density = float64(fc.W.NNZ()) / float64(n)
			}
			// Sparse layouts only win below the density threshold.
			// Below it, block metadata promotes the layer from CSR to
			// BSR under auto.
			belowThreshold := pl.density <= DefaultDensityThreshold
			wantBSR := cfg.Backend == BackendBSR ||
				(cfg.Backend == BackendAuto && fc.BlockSize > 0 && belowThreshold)
			wantCSR := cfg.Backend == BackendSparse ||
				(cfg.Backend == BackendAuto && belowThreshold && !wantBSR)
			// Compile the CSR view whenever a CSR-shaped kernel needs
			// it, and for every masked layer regardless of kernel
			// choice: the accelerator simulator analyzes pruned layers
			// through it (dnnsim reuses these instead of re-running
			// sparse.FromDense per analysis).
			if wantCSR || fc.Mask != nil {
				pl.csr = sparse.FromDense(fc.W, fc.B)
			}
			// Likewise the BSR view: for the bsr kernel, and for every
			// block-pruned layer regardless of kernel choice, so the
			// accelerator simulator's block lane model and the storage
			// accounting read the compiled tiles.
			if wantBSR || (fc.BlockSize > 0 && fc.Mask != nil) {
				block := fc.BlockSize
				if block <= 0 {
					block = DefaultBSRBlock
				}
				pl.bsr = sparse.FromDenseBSR(fc.W, fc.B, block)
			}
			switch {
			case wantBSR:
				pl.kern = bsrKernel{pl.bsr}
			case wantCSR:
				pl.kern = csrKernel{pl.csr}
			default:
				pl.kern = denseKernel{fc}
			}
			pl.timer = obsKernelTime.With(pl.kern.Name())
			obsPlanLayerDensity.Observe(pl.density)
		} else {
			pl.kern = layerKernel{l}
			pl.timer = obsLayerTime
		}
		p.layers = append(p.layers, pl)
	}
	obsPlanCompiles.Inc()
	return p
}

// InDim reports the input dimensionality of the plan.
func (p *Plan) InDim() int { return p.inDim }

// OutDim reports the number of output classes (senones).
func (p *Plan) OutDim() int { return p.outDim }

// Sparse returns the compiled CSR view of layer i, or nil when none
// was built (non-FC layers and unmasked dense-kernel layers). The
// returned layer is shared read-only.
func (p *Plan) Sparse(i int) *sparse.Layer { return p.layers[i].csr }

// BSR returns the compiled block-sparse view of layer i, or nil when
// none was built (layers without block metadata not running the bsr
// kernel). The returned layer is shared read-only.
func (p *Plan) BSR(i int) *sparse.BSR { return p.layers[i].bsr }

// Kernels reports the chosen kernel name per layer ("dense", "sparse",
// "bsr", or "-" for non-FC layers) for logs and tests. The names come
// straight from the compiled kernels, so Describe and Kernels can
// never disagree.
func (p *Plan) Kernels() []string {
	out := make([]string, len(p.layers))
	for i := range p.layers {
		out[i] = p.layers[i].kern.Name()
	}
	return out
}

// Describe summarizes the plan for startup logs: per-FC kernel and
// density, e.g. "FC0:dense(1.00) FC1:bsr(0.10)". Kernel names
// are the same strings Kernels returns.
func (p *Plan) Describe() string {
	s := ""
	for i := range p.layers {
		pl := &p.layers[i]
		if pl.fc == nil {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%s(%.2f)", pl.fc.LayerName, pl.kern.Name(), pl.density)
	}
	return s
}

// newActivations allocates one set of per-boundary activation buffers
// sized for the plan.
func (p *Plan) newActivations() [][]float64 {
	acts := make([][]float64, len(p.layers)+1)
	acts[0] = make([]float64, p.layers[0].layer.InDim())
	for i, pl := range p.layers {
		acts[i+1] = make([]float64, pl.layer.OutDim())
	}
	return acts
}

// NewExec returns a fresh executor over the plan. The Exec owns all
// mutable scratch (the activation buffers), so one plan may be shared
// by any number of concurrent Execs; each individual Exec is
// single-goroutine, like the Network methods it replaces.
func (p *Plan) NewExec() *Exec {
	return &Exec{plan: p, acts: p.newActivations()}
}

// Exec executes a compiled plan. It is the per-worker counterpart of
// the shared Plan: scratch buffers live here, kernels and weights in
// the plan. The zero value is not usable; obtain one from
// Plan.NewExec.
type Exec struct {
	plan *Plan
	acts [][]float64 // activations, acts[0] = input copy
}

// Plan returns the shared plan this executor runs.
func (e *Exec) Plan() *Plan { return e.plan }

// Logits computes the pre-softmax outputs for one input frame,
// leaving every intermediate activation in the Exec's scratch. The
// returned slice is reused by the next call; copy it to retain.
// Mirrors Network.forwardInto: the instrumented branch (forward and
// per-kernel timers) is taken only while observation is enabled, so
// the plain path pays one atomic load for the whole pass.
func (e *Exec) Logits(in []float64) []float64 {
	acts := e.acts
	copy(acts[0], in)
	layers := e.plan.layers
	if !obs.Enabled() {
		for i := range layers {
			layers[i].kern.MatVec(acts[i+1], acts[i])
		}
		return acts[len(layers)]
	}
	sp := obsForwardTime.Start()
	for i := range layers {
		pl := &layers[i]
		ksp := pl.timer.Start()
		pl.kern.MatVec(acts[i+1], acts[i])
		ksp.Stop()
	}
	sp.Stop()
	obsForwardPasses.Inc()
	return acts[len(layers)]
}

// LogPosteriors writes log-softmax outputs for in into dst — the
// acoustic scores consumed by the Viterbi search.
func (e *Exec) LogPosteriors(dst, in []float64) {
	mat.LogSoftmax(dst, e.Logits(in))
}

// LogPosteriorsBatch writes log-softmax outputs for every input row
// into the corresponding dst row (len(dst) == len(ins); each dst row
// sized OutDim). It is LogPosteriors row by row — every kernel has one
// compute method, MatVec — kept for the benchmark's B=16 probes.
func (e *Exec) LogPosteriorsBatch(dst, ins [][]float64) {
	if len(dst) != len(ins) {
		panic(fmt.Sprintf("dnn: batch dst rows %d != input rows %d", len(dst), len(ins)))
	}
	for r := range ins {
		e.LogPosteriors(dst[r], ins[r])
	}
}

// Posteriors writes softmax class probabilities for in into dst and
// returns the confidence, i.e. the probability of the top-1 class.
func (e *Exec) Posteriors(dst, in []float64) float64 {
	return mat.Softmax(dst, e.Logits(in))
}
