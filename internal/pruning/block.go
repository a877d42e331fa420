package pruning

import (
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/mat"
)

// Block-structured pruning (Kang, Accelerator-Aware Pruning): instead
// of dropping individual weights, whole b×b tiles of the weight matrix
// live or die together, so the surviving sparsity pattern is exactly
// the BSR block grid the accelerator's lanes can stream without
// per-weight index gathers. The decision rule stays Han-style — a tile
// survives iff its root-mean-square magnitude clears quality·σ(layer)
// — so the same bisection calibrates a block model to the same global
// sparsity as the unstructured path, making the two directly
// comparable at 70/80/90%.

// blockRMS computes the RMS magnitude of the tile anchored at
// (br·block, bc·block), clipped to the matrix (edge tiles are judged on
// their real entries only, not phantom zero padding).
func blockRMS(w *mat.Matrix, br, bc, block int) float64 {
	var ss float64
	n := 0
	for r := br * block; r < (br+1)*block && r < w.Rows; r++ {
		row := w.Row(r)
		for c := bc * block; c < (bc+1)*block && c < w.Cols; c++ {
			ss += row[c] * row[c]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(ss / float64(n))
}

// blockRowKeep decides, for one block row of a layer, which tiles
// survive at the given threshold: every tile with RMS ≥ threshold.
// When sentinel is set and no tile clears it, the row is reported
// dead: the caller keeps only the single strongest weight of each
// scalar row in it.
//
// The sentinel guards the output (senone) layer: at deep targets an
// 8-wide tile grid can otherwise zero every tile feeding a band of 8
// senones, and a senone with no incoming weights scores a constant
// bias no amount of fixed-mask retraining can fix — those classes
// simply stop being decodable. Unstructured pruning avoids this by
// accident (scattered survivors); the block rule needs it explicit.
// Keeping single weights rather than a whole tile matters: a full b×b
// add-back per dead row shifts enough budget onto the hidden layers
// to over-prune them on narrow networks, while b sentinel weights are
// calibration noise. The BSR layout absorbs the rescued weights as a
// handful of extra (mostly zero) tiles. Hidden rows get no sentinel: a
// dead hidden unit is recoverable capacity the retrain redistributes.
func blockRowKeep(w *mat.Matrix, br, block int, threshold float64, sentinel bool) (keep []bool, dead bool) {
	nbc := (w.Cols + block - 1) / block
	keep = make([]bool, nbc)
	kept := 0
	for bc := 0; bc < nbc; bc++ {
		if blockRMS(w, br, bc, block) >= threshold {
			keep[bc] = true
			kept++
		}
	}
	return keep, kept == 0 && sentinel
}

// outputLayerIndex reports the index (within net.FCs()) of the last
// trainable FC — the senone layer, whose rows get the no-dead-output
// floor in blockRowKeep.
func outputLayerIndex(net *dnn.Network) int {
	out := -1
	for i, fc := range net.FCs() {
		if fc.Trainable {
			out = i
		}
	}
	return out
}

// BlockPrune applies the block rule in place: for every trainable FC
// layer, b×b tiles with RMS(tile) < quality*σ(layer) are masked to zero
// whole, except that each block row of the output layer keeps at least
// its sentinel weights (see blockRowKeep). Non-trainable layers
// (FC0/LDA) are never pruned. The FC's BlockSize is set so plan
// compilation knows the mask is block-shaped; the per-layer report
// counts individual weights, so GlobalPruning is directly comparable
// with the unstructured Prune.
func BlockPrune(net *dnn.Network, quality float64, block int) Report {
	if block <= 1 {
		panic(fmt.Sprintf("pruning: block edge %d must be > 1", block))
	}
	rep := Report{Quality: quality}
	totalTrainable, totalPruned := 0, 0
	outIdx := outputLayerIndex(net)
	for i, fc := range net.FCs() {
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
		cols := fc.W.Cols
		for br := 0; br*block < fc.W.Rows; br++ {
			keep, dead := blockRowKeep(fc.W, br, block, threshold, i == outIdx)
			if dead {
				// Dead row rescue: each scalar row keeps only its single
				// strongest weight.
				for r := br * block; r < (br+1)*block && r < fc.W.Rows; r++ {
					row := fc.W.Row(r)
					bestC, bestAbs := 0, -1.0
					for c := 0; c < cols; c++ {
						if a := math.Abs(row[c]); a > bestAbs {
							bestC, bestAbs = c, a
						}
					}
					mask[r*cols+bestC] = true
					pruned += cols - 1
				}
				continue
			}
			for bc := 0; bc*block < cols; bc++ {
				for r := br * block; r < (br+1)*block && r < fc.W.Rows; r++ {
					for c := bc * block; c < (bc+1)*block && c < cols; c++ {
						if keep[bc] {
							mask[r*cols+c] = true
						} else {
							pruned++
						}
					}
				}
			}
		}
		fc.Mask = mask
		fc.BlockSize = block
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

// blockGlobalPruningAt computes, without mutating the network, the
// global pruning fraction BlockPrune at this quality would produce —
// the same rule including the output-row floor, so calibration against
// it lands BlockPrune exactly on its prediction.
func blockGlobalPruningAt(net *dnn.Network, quality float64, block int) float64 {
	total, pruned := 0, 0
	outIdx := outputLayerIndex(net)
	for i, fc := range net.FCs() {
		if !fc.Trainable {
			continue
		}
		threshold := quality * mat.StdDev(fc.W.Data)
		for br := 0; br*block < fc.W.Rows; br++ {
			keep, dead := blockRowKeep(fc.W, br, block, threshold, i == outIdx)
			rn := min(block, fc.W.Rows-br*block)
			if dead {
				// Sentinel: one weight per scalar row survives.
				pruned += rn * (fc.W.Cols - 1)
				continue
			}
			for bc := 0; bc*block < fc.W.Cols; bc++ {
				if keep[bc] {
					continue
				}
				cn := min(block, fc.W.Cols-bc*block)
				pruned += rn * cn
			}
		}
		total += fc.WeightCount()
	}
	if total == 0 {
		return 0
	}
	return float64(pruned) / float64(total)
}

// CalibrateBlockQuality finds by bisection the quality parameter at
// which BlockPrune removes the requested global fraction of trainable
// weights. Tiles are pruned in whole b²-weight steps, so the achieved
// fraction lands within one tile-grain of the target rather than
// exactly on it — at the model sizes here that grain is < 0.1%.
func CalibrateBlockQuality(net *dnn.Network, block int, target float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("pruning: target fraction %v out of (0,1)", target)
	}
	lo, hi := 0.0, 1.0
	for blockGlobalPruningAt(net, hi, block) < target {
		hi *= 2
		if hi > 1e6 {
			return 0, fmt.Errorf("pruning: cannot reach target %v with block %d", target, block)
		}
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if blockGlobalPruningAt(net, mid, block) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// BlockConfig bundles the block pipeline: calibrate a quality for the
// target sparsity, prune b×b tiles, retrain with masks held fixed.
type BlockConfig struct {
	Block   int     // tile edge, e.g. 4 or 8
	Target  float64 // global pruning fraction, e.g. 0.9
	Retrain dnn.TrainConfig
}

// BlockPruneAndRetrain clones the trained network, block-prunes it to
// the target global sparsity and retrains the surviving tiles on
// samples — the exact pipeline of PruneAndRetrain with the block rule
// swapped in, so structured and unstructured models at the same target
// differ only in the shape of what was removed.
func BlockPruneAndRetrain(baseline *dnn.Network, samples []dnn.Sample, cfg BlockConfig) (Result, error) {
	net := baseline.Clone()
	quality, err := CalibrateBlockQuality(net, cfg.Block, cfg.Target)
	if err != nil {
		return Result{}, err
	}
	rep := BlockPrune(net, quality, cfg.Block)
	if len(samples) > 0 && cfg.Retrain.Epochs > 0 {
		dnn.NewTrainer(net).Train(samples, cfg.Retrain)
		// Retraining must never resurrect pruned tiles.
		for _, fc := range net.FCs() {
			fc.ApplyMask()
		}
	}
	dnn.PublishWeightStats(net)
	return Result{Net: net, Report: rep}, nil
}
