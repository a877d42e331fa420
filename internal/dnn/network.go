package dnn

import (
	"fmt"
	"sync"

	"repro/internal/mat"
	"repro/internal/obs"
)

// Network is a feed-forward stack of layers ending in a linear layer
// whose outputs are senone logits; Posteriors applies the softmax.
//
// Inference on a Network runs through a compiled inference plan
// (plan.go): Logits and friends are thin wrappers over a lazily
// compiled, cached Plan plus one private Exec carrying the scratch.
// The cached plan is invalidated whenever the weights change
// (training steps, pruning, quantization), so the wrappers always
// execute the current weights; callers that fan inference across
// goroutines share the one Plan and give each worker its own Exec.
type Network struct {
	Layers []Layer

	// planMu guards the lazily compiled plan/exec pair and the config
	// it is compiled under. Compilation may be triggered concurrently
	// (e.g. dnnsim.Analyze from parallel experiment configs).
	planMu  sync.Mutex
	planCfg PlanConfig
	plan    *Plan
	exec    *Exec
}

// NewNetwork validates that consecutive layer dimensions agree and
// returns the assembled network.
func NewNetwork(layers ...Layer) *Network {
	if err := checkChain(layers); err != nil {
		panic(err)
	}
	return &Network{Layers: layers}
}

// checkChain reports the first pair of adjacent layers whose
// dimensions disagree, or nil.
func checkChain(layers []Layer) error {
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutDim() != layers[i].InDim() {
			return fmt.Errorf("dnn: layer %q out %d != layer %q in %d",
				layers[i-1].Name(), layers[i-1].OutDim(), layers[i].Name(), layers[i].InDim())
		}
	}
	return nil
}

// SetPlanConfig sets the configuration future cached plans compile
// under (the -backend flag of the commands lands here) and drops any
// previously compiled plan.
func (n *Network) SetPlanConfig(cfg PlanConfig) {
	n.planMu.Lock()
	n.planCfg = cfg
	n.plan, n.exec = nil, nil
	n.planMu.Unlock()
}

// InvalidatePlan drops the cached plan so the next inference or Plan
// call recompiles from the current weights. Called by every weight
// mutation site (training steps, pruning, quantization).
func (n *Network) InvalidatePlan() {
	n.planMu.Lock()
	n.plan, n.exec = nil, nil
	n.planMu.Unlock()
}

// Plan returns the network's cached compiled plan, compiling it on
// first use (or after an invalidation) under the config set by
// SetPlanConfig. The returned plan is shared read-only: concurrent
// workers should each obtain their own Exec from it.
func (n *Network) Plan() *Plan {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	if n.plan == nil {
		n.plan = Compile(n, n.planCfg)
	}
	return n.plan
}

// ownExec returns the Exec backing the Network's own inference
// wrappers. Like the wrappers themselves it is single-goroutine.
func (n *Network) ownExec() *Exec {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	if n.plan == nil {
		n.plan = Compile(n, n.planCfg)
	}
	if n.exec == nil {
		n.exec = n.plan.NewExec()
	}
	return n.exec
}

// InDim reports the input dimensionality of the network.
func (n *Network) InDim() int { return n.Layers[0].InDim() }

// OutDim reports the number of output classes (senones).
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].OutDim() }

func (n *Network) newActivations() [][]float64 {
	acts := make([][]float64, len(n.Layers)+1)
	acts[0] = make([]float64, n.Layers[0].InDim())
	for i, l := range n.Layers {
		acts[i+1] = make([]float64, l.OutDim())
	}
	return acts
}

// forwardInto runs the raw dense layer stack over in, leaving every
// intermediate activation in acts; returns the logits slice (aliased
// into acts). This is the training path: the Trainer needs every
// activation for backprop and mutates weights between batches, so it
// bypasses plan compilation. The instrumented branch is taken only
// while observation is enabled, so the plain path pays one atomic
// load for the whole pass.
func (n *Network) forwardInto(acts [][]float64, in []float64) []float64 {
	copy(acts[0], in)
	if !obs.Enabled() {
		for i, l := range n.Layers {
			l.Forward(acts[i+1], acts[i])
		}
		return acts[len(acts)-1]
	}
	sp := obsForwardTime.Start()
	for i, l := range n.Layers {
		lsp := obsLayerTime.Start()
		l.Forward(acts[i+1], acts[i])
		lsp.Stop()
	}
	sp.Stop()
	obsForwardPasses.Inc()
	return acts[len(acts)-1]
}

// Logits computes the pre-softmax outputs for one input frame through
// the cached compiled plan. The returned slice is reused by the next
// call; copy it to retain. Not safe for concurrent use on one Network
// — concurrent workers should share n.Plan() and own per-worker Execs.
func (n *Network) Logits(in []float64) []float64 {
	return n.ownExec().Logits(in)
}

// Posteriors writes softmax class probabilities for in into dst and
// returns the confidence, i.e. the probability of the top-1 class.
func (n *Network) Posteriors(dst, in []float64) float64 {
	return mat.Softmax(dst, n.Logits(in))
}

// LogPosteriors writes log-softmax outputs for in into dst. These are
// the acoustic scores consumed by the Viterbi search.
func (n *Network) LogPosteriors(dst, in []float64) {
	mat.LogSoftmax(dst, n.Logits(in))
}

// Classify returns the top-1 class index and its probability.
func (n *Network) Classify(in []float64) (class int, confidence float64) {
	logits := n.Logits(in)
	post := make([]float64, len(logits))
	conf := mat.Softmax(post, logits)
	return mat.ArgMax(post), conf
}

// FCs returns the fully-connected layers in order (the pruning surface
// and the accelerator's unit of work).
func (n *Network) FCs() []*FC {
	var fcs []*FC
	for _, l := range n.Layers {
		if fc, ok := l.(*FC); ok {
			fcs = append(fcs, fc)
		}
	}
	return fcs
}

// TrainableWeightCount reports the total number of weights in trainable
// FC layers, the denominator of the paper's global pruning percentage.
func (n *Network) TrainableWeightCount() int {
	total := 0
	for _, fc := range n.FCs() {
		if fc.Trainable {
			total += fc.WeightCount()
		}
	}
	return total
}

// WeightCount reports the total number of FC weights including the
// fixed (LDA) layer, the paper's "total model size" denominator.
func (n *Network) WeightCount() int {
	total := 0
	for _, fc := range n.FCs() {
		total += fc.WeightCount()
	}
	return total
}

// GlobalPruning reports the fraction of trainable weights removed.
func (n *Network) GlobalPruning() float64 {
	total, active := 0, 0
	for _, fc := range n.FCs() {
		if !fc.Trainable {
			continue
		}
		total += fc.WeightCount()
		active += fc.ActiveWeights()
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(active)/float64(total)
}

// Clone returns a deep copy of the network (weights, biases, masks).
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		switch v := l.(type) {
		case *FC:
			c := &FC{
				LayerName: v.LayerName,
				W:         v.W.Clone(),
				B:         append([]float64(nil), v.B...),
				Trainable: v.Trainable,
				BlockSize: v.BlockSize,
			}
			if v.Mask != nil {
				c.Mask = append([]bool(nil), v.Mask...)
			}
			layers[i] = c
		case *PNorm:
			cp := *v
			layers[i] = &cp
		case *Renorm:
			cp := *v
			layers[i] = &cp
		default:
			panic(fmt.Sprintf("dnn: cannot clone layer type %T", l))
		}
	}
	c := NewNetwork(layers...)
	n.planMu.Lock()
	c.planCfg = n.planCfg
	n.planMu.Unlock()
	return c
}
