// Package pruning implements the magnitude-based pruning scheme of
// Han et al. (NIPS'15) as used by the paper: per-layer thresholds equal
// to a shared quality parameter times the standard deviation of the
// layer's weights, followed by masked retraining so the surviving
// connections recover accuracy.
package pruning

import (
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/mat"
)

// LayerReport describes the pruning applied to one FC layer, matching
// the per-layer rows of Table I.
type LayerReport struct {
	Name      string
	Weights   int
	Pruned    int
	Fraction  float64
	Threshold float64
}

// Report summarizes a pruning pass over a network.
type Report struct {
	Quality       float64
	GlobalPruning float64 // fraction of trainable weights removed
	Layers        []LayerReport
}

// Prune applies the Han et al. rule in place: for every trainable FC
// layer, weights with |w| < quality*σ(layer) are masked to zero.
// Non-trainable layers (FC0/LDA) are never pruned, as in the paper.
// It returns the per-layer report.
func Prune(net *dnn.Network, quality float64) Report {
	rep := Report{Quality: quality}
	totalTrainable, totalPruned := 0, 0
	for _, fc := range net.FCs() {
		if !fc.Trainable {
			rep.Layers = append(rep.Layers, LayerReport{
				Name: fc.LayerName, Weights: fc.WeightCount(),
			})
			continue
		}
		sigma := mat.StdDev(fc.W.Data)
		threshold := quality * sigma
		mask := make([]bool, len(fc.W.Data))
		pruned := 0
		for i, w := range fc.W.Data {
			if math.Abs(w) >= threshold {
				mask[i] = true
			} else {
				pruned++
			}
		}
		fc.Mask = mask
		fc.BlockSize = 0 // unstructured mask, even if previously block-pruned
		fc.ApplyMask()
		rep.Layers = append(rep.Layers, LayerReport{
			Name: fc.LayerName, Weights: fc.WeightCount(), Pruned: pruned,
			Fraction:  float64(pruned) / float64(fc.WeightCount()),
			Threshold: threshold,
		})
		totalTrainable += fc.WeightCount()
		totalPruned += pruned
	}
	if totalTrainable > 0 {
		rep.GlobalPruning = float64(totalPruned) / float64(totalTrainable)
	}
	return rep
}

// globalPruningAt computes, without mutating the network, the global
// pruning fraction the quality parameter would produce.
func globalPruningAt(net *dnn.Network, quality float64) float64 {
	total, pruned := 0, 0
	for _, fc := range net.FCs() {
		if !fc.Trainable {
			continue
		}
		threshold := quality * mat.StdDev(fc.W.Data)
		for _, w := range fc.W.Data {
			if math.Abs(w) < threshold {
				pruned++
			}
		}
		total += fc.WeightCount()
	}
	if total == 0 {
		return 0
	}
	return float64(pruned) / float64(total)
}

// CalibrateQuality finds by bisection the quality parameter that prunes
// the requested global fraction of trainable weights (e.g. 0.70, 0.80,
// 0.90). The paper reports qualities of 1.44/1.90/2.71 for its model;
// ours differ because the weight distribution differs, but the rule is
// identical.
func CalibrateQuality(net *dnn.Network, target float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("pruning: target fraction %v out of (0,1)", target)
	}
	lo, hi := 0.0, 1.0
	for globalPruningAt(net, hi) < target {
		hi *= 2
		if hi > 1e6 {
			return 0, fmt.Errorf("pruning: cannot reach target %v", target)
		}
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if globalPruningAt(net, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// Config bundles the three-step Han pipeline: calibrate a quality for
// the target sparsity, prune, retrain with masks held fixed.
type Config struct {
	Target  float64 // global pruning fraction, e.g. 0.9
	Retrain dnn.TrainConfig
}

// Result is the outcome of PruneAndRetrain.
type Result struct {
	Net    *dnn.Network
	Report Report
}

// PruneAndRetrain clones the trained network, prunes it to the target
// global sparsity and retrains the surviving weights on samples.
// The original network is left untouched so multiple pruning levels can
// be derived from one baseline, as in the paper's 70/80/90% sweep.
func PruneAndRetrain(baseline *dnn.Network, samples []dnn.Sample, cfg Config) (Result, error) {
	net := baseline.Clone()
	quality, err := CalibrateQuality(net, cfg.Target)
	if err != nil {
		return Result{}, err
	}
	rep := Prune(net, quality)
	if len(samples) > 0 && cfg.Retrain.Epochs > 0 {
		dnn.NewTrainer(net).Train(samples, cfg.Retrain)
		// Retraining must never resurrect pruned weights.
		for _, fc := range net.FCs() {
			fc.ApplyMask()
		}
	}
	dnn.PublishWeightStats(net)
	return Result{Net: net, Report: rep}, nil
}
