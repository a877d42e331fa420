package dnn

import (
	"fmt"

	"repro/internal/obs"
)

// Network is a feed-forward stack of layers ending in a linear layer
// whose outputs are senone logits.
//
// A Network holds weights and trains; it does not score. Inference
// goes through Compile, which snapshots the current weights into a
// Plan, and an Exec over that plan (plan.go). Weight mutations
// (training steps, pruning, quantization) therefore never have to
// know that plans exist: a scorer compiles after the mutation it
// wants to see.
type Network struct {
	Layers []Layer
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
	return NewNetwork(layers...)
}
