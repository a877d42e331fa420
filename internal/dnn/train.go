package dnn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Sample is one training example: a spliced input frame and its
// ground-truth senone label.
type Sample struct {
	Input []float64
	Label int
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	LRDecay      float64 // multiplicative per-epoch decay (1 = none)
	L2           float64 // weight decay
	Seed         int64
	// Progress, if non-nil, receives the average cross-entropy loss
	// after each epoch.
	Progress func(epoch int, loss float64)
}

// DefaultTrainConfig returns a configuration that converges on the
// synthetic acoustic task at every scale used in this repository.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       8,
		BatchSize:    16,
		LearningRate: 0.04,
		LRDecay:      0.85,
		L2:           1e-5,
		Seed:         1,
	}
}

// Trainer performs minibatch SGD with softmax cross-entropy loss.
// It owns activation and gradient scratch space so a training run does
// no steady-state allocation.
type Trainer struct {
	net   *Network
	acts  [][]float64 // forward activations, len(layers)+1
	dacts [][]float64 // gradient buffers matching acts
	post  []float64   // softmax scratch
}

// NewTrainer prepares scratch space for training net.
func NewTrainer(net *Network) *Trainer {
	t := &Trainer{net: net, acts: net.newActivations(), post: make([]float64, net.OutDim())}
	t.dacts = make([][]float64, len(t.acts))
	for i := range t.acts {
		t.dacts[i] = make([]float64, len(t.acts[i]))
	}
	return t
}

// step runs forward+backward for one sample and returns its
// cross-entropy loss. Parameter gradients accumulate in the layers.
func (t *Trainer) step(s Sample) float64 {
	if s.Label < 0 || s.Label >= t.net.OutDim() {
		panic(fmt.Sprintf("dnn: label %d out of range [0,%d)", s.Label, t.net.OutDim()))
	}
	logits := t.net.forwardInto(t.acts, s.Input)
	mat.Softmax(t.post, logits)
	loss := -math.Log(math.Max(t.post[s.Label], 1e-300))

	// dLogits = softmax - onehot
	dOut := t.dacts[len(t.dacts)-1]
	copy(dOut, t.post)
	dOut[s.Label] -= 1

	for i := len(t.net.Layers) - 1; i >= 0; i-- {
		var dIn []float64
		if i > 0 {
			dIn = t.dacts[i]
		}
		t.net.Layers[i].Backward(dIn, t.dacts[i+1], t.acts[i], t.acts[i+1])
	}
	return loss
}

// applyStep updates every trainable FC layer, scaling the accumulated
// gradient by 1/batch.
func (t *Trainer) applyStep(lr, l2 float64, batch int) {
	scale := lr / float64(batch)
	for _, fc := range t.net.FCs() {
		fc.Step(scale, l2)
	}
}

// Train runs SGD over the samples according to cfg and returns the
// final-epoch average loss.
func (t *Trainer) Train(samples []Sample, cfg TrainConfig) float64 {
	if len(samples) == 0 {
		return 0
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	rng := mat.NewRNG(cfg.Seed)
	lr := cfg.LearningRate
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(len(samples))
		var total float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for _, idx := range order[start:end] {
				total += t.step(samples[idx])
			}
			t.applyStep(lr, cfg.L2, end-start)
		}
		epochLoss = total / float64(len(samples))
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss)
		}
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
	return epochLoss
}

// Evaluate reports top-1 accuracy, top-5 accuracy and mean confidence
// (top-1 softmax probability) over the samples — the three quality
// metrics Section II of the paper contrasts. It compiles the network's
// current weights and scores on its own Exec, so concurrent callers on
// one Network share nothing mutable.
func Evaluate(net *Network, samples []Sample) (top1, top5, meanConfidence float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	ex := Compile(net, PlanConfig{}).NewExec()
	post := make([]float64, net.OutDim())
	var hits1, hits5 int
	var confSum float64
	for _, s := range samples {
		conf := ex.Posteriors(post, s.Input)
		confSum += conf
		pLabel := post[s.Label]
		rank := 0
		for _, p := range post {
			if p > pLabel {
				rank++
			}
		}
		if rank == 0 {
			hits1++
		}
		if rank < 5 {
			hits5++
		}
	}
	n := float64(len(samples))
	return float64(hits1) / n, float64(hits5) / n, confSum / n
}
