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
	// BackendAuto picks per FC layer: the BSR block-sparse kernel for
	// a layer block-pruned in 8×8 tiles (FC.BlockSize == 8) at or below
	// BSRDensityThreshold, the CSR sparse kernel for any other layer at
	// or below DefaultDensityThreshold, and the dense matvec otherwise
	// (where the portable kernel bodies run, i.e. !mat.HasAVX(),
	// PortableBSRDensityThreshold and PortableDensityThreshold, and BSR
	// also for a layer block-pruned in 4×4 tiles at or below
	// PortableBSR4DensityThreshold). All three are bit-identical, so the
	// choice is invisible to decode results.
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
// BackendAuto selects the CSR kernel, and BSRDensityThreshold the one
// at or below which it selects BSR for a layer block-pruned in 8×8
// tiles, the one tile size whose BSR body is AVX assembly
// (sparse.BSR.MatVec). Each sits where that kernel stops beating the
// dense panels on a served hidden layer (80 inputs, 400 outputs;
// BenchmarkDensityCrossover, minimum of 5 runs, 2-vCPU AVX host):
//
//	density      10 %  15 %  20 %  25 %  30 %  40 %  60 %  80 %  90 %
//	dense (µs)   4.71  4.08  3.62  4.08  4.34  3.97  3.59  3.86  3.80
//	sparse (µs)  2.15  2.86  3.33  4.15  5.25  6.52  10.2  14.2  16.6
//	bsr 8×8 (µs) 0.38  0.50  0.90  1.34  1.54  1.77  2.22  3.61  4.22
//	bsr 4×4 (µs) 3.64  4.82  5.20  7.10  8.04  9.71  15.1  19.1  26.2
//
// The dense time does not depend on density; its spread is the host's.
// SELL-4 pays an index load and a gathered input per nonzero and
// crosses the dense time between 20 and 25 %. 8×8 BSR pays one index
// per tile and reads its inputs in runs, so it leads to about 80 % and
// loses at 90 %. 4×4 BSR runs portable Go: it crosses the dense time
// near 12 % and is slower than SELL-4 at every density here, so a
// layer block-pruned in any tile but 8×8 takes the CSR rule. The
// paper's 70/80/90 % pruning levels put the served layers near 10 %.
const (
	DefaultDensityThreshold = 0.2
	BSRDensityThreshold     = 0.8
)

// PortableDensityThreshold and PortableBSRDensityThreshold are the
// same pair for the portable Go bodies, which every kernel runs where
// mat.HasAVX is false (BenchmarkDensityCrossover's portable/ legs on
// the same layer and host, AVX cleared, minimum of 3 runs):
//
//	density      10 %  15 %  20 %  25 %  30 %  40 %  60 %  80 %  90 %
//	dense (µs)   21.0  17.4  20.8  19.6  19.4  19.5  24.5  17.7  17.5
//	sparse (µs)  5.64  5.78  9.42  12.5  13.5  21.6  29.3  33.0  30.1
//	bsr 8×8 (µs) 2.87  2.19  4.47  3.43  4.15  5.83  8.23  10.6  11.4
//	bsr 4×4 (µs) 2.59  3.71  5.62  7.55  7.26  13.0  15.2  15.9  18.2
//
// The portable dense panels are about five times slower than their AVX
// body, so both sparse kernels win far longer: SELL-4 crosses the dense
// time between 35 and 40 % (a second run in 2–3 % steps read 12.9 µs
// against 16.4 at 35 % and 16.1 against 15.2 at 40 %), and 8×8 BSR
// never crosses it, still 14.9 µs against 21.7 on the unpruned layer
// tiled 8×8. So on these bodies auto takes SELL-4 up to 35 % and BSR
// for every 8×8-block-pruned layer. 4×4 BSR beats SELL-4 at every
// density here too, and the dense panels up to 80 % (15.9 µs against
// 17.7; a second run, minimum of 6, 12.4 against 15.0) but not at 90 %
// (18.2 against 17.5; 17.0 against 17.2 in the second run, a tie on
// this host), so a 4×4-block-pruned layer takes BSR up to
// PortableBSR4DensityThreshold. On the AVX bodies
// 4×4 BSR, still portable Go, loses to SELL-4 everywhere and keeps the
// CSR rule.
const (
	PortableDensityThreshold     = 0.35
	PortableBSRDensityThreshold  = 1.0
	PortableBSR4DensityThreshold = 0.8
)

// PlanConfig controls kernel selection when compiling a plan.
type PlanConfig struct {
	// Backend is the kernel policy (default BackendAuto).
	Backend Backend
}

// planLayer is one compiled execution step: the layer's name and
// output width, the chosen kernel (which, for FC layers, holds its own
// snapshot of the weights in the one layout it runs), and the
// per-kernel timer resolved at compile time. It keeps no reference to
// the source FC layer.
type planLayer struct {
	name    string
	outDim  int
	fc      bool       // an FC layer; false for pooling/renorm layers
	kern    Kernel     // the compute implementation; never nil
	timer   *obs.Timer // dnn.kernel_seconds child for kern (layer timer for non-FC)
	density float64    // NNZ / weight count at compile time
}

// Plan is a compiled inference plan: one immutable kernel schedule
// built from a snapshot of a Network's weights. A Plan selects one
// Kernel per layer — float dense, CSR sparse or BSR block-sparse,
// bit-identical to each other by construction — and stores each
// layer only in the layout its kernel runs.
//
// Ownership contract (DESIGN.md §6c): a Plan is shared read-only — any
// number of goroutines may execute it concurrently, each through its
// own Exec, which owns all mutable scratch (the activations). Every FC
// kernel owns a copy of its layer's weights and bias, taken at
// Compile, so the Plan never observes later mutations of the source
// Network and keeps none of its FC storage alive: retraining, pruning
// or quantizing the network leaves previously compiled plans scoring
// the old weights; a scorer that wants the new weights compiles again.
type Plan struct {
	layers []planLayer
	inDim  int
	outDim int
}

// Compile builds a plan from the network's current weights under cfg.
// The network is only read; the returned plan copies every FC layer's
// weights and bias into its kernels and holds no reference to them or
// to the network's scratch state.
func Compile(net *Network, cfg PlanConfig) *Plan {
	if cfg.Backend == "" {
		cfg.Backend = BackendAuto
	}
	p := &Plan{inDim: net.InDim(), outDim: net.OutDim()}
	// bsrMax maps a block-pruned layer's tile edge to the density at
	// or below which auto runs it on BSR; any other layer takes the CSR
	// rule.
	csrMax, bsrMax := DefaultDensityThreshold, map[int]float64{8: BSRDensityThreshold}
	if !mat.HasAVX() {
		csrMax = PortableDensityThreshold
		bsrMax = map[int]float64{8: PortableBSRDensityThreshold, 4: PortableBSR4DensityThreshold}
	}
	for _, l := range net.Layers {
		pl := planLayer{name: l.Name(), outDim: l.OutDim(), density: 1}
		if fc, ok := l.(*FC); ok {
			pl.fc = true
			if n := fc.WeightCount(); n > 0 {
				pl.density = float64(fc.W.NNZ()) / float64(n)
			}
			// Each sparse layout only wins below its own density
			// threshold on the body that runs; block metadata selects
			// BSR's for its tile edge.
			blockMax, blocked := bsrMax[fc.BlockSize]
			wantBSR := cfg.Backend == BackendBSR ||
				(cfg.Backend == BackendAuto && blocked && pl.density <= blockMax)
			wantCSR := cfg.Backend == BackendSparse ||
				(cfg.Backend == BackendAuto && pl.density <= csrMax)
			switch {
			case wantBSR:
				block := fc.BlockSize
				if block <= 0 {
					block = DefaultBSRBlock
				}
				pl.kern = bsrKernel{sparse.FromDenseBSR(fc.W, fc.B, block)}
			case wantCSR:
				pl.kern = csrKernel{sparse.FromDenseSELL(fc.W, fc.B)}
			default:
				pl.kern = denseKernel{mat.NewPanels(fc.W, fc.B)}
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
		if !pl.fc {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%s(%.2f)", pl.name, pl.kern.Name(), pl.density)
	}
	return s
}

// newActivations allocates one set of per-boundary activation buffers
// sized for the plan.
func (p *Plan) newActivations() [][]float64 {
	acts := make([][]float64, len(p.layers)+1)
	acts[0] = make([]float64, p.inDim)
	for i, pl := range p.layers {
		acts[i+1] = make([]float64, pl.outDim)
	}
	return acts
}

// NewExec returns a fresh executor over the plan. The Exec owns all
// mutable scratch (the activation buffers), so one plan may be shared
// by any number of concurrent Execs; each individual Exec is
// single-goroutine.
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
