package asr

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/pruning"
)

// BlockSizes are the hardware-aligned tile edges the block-pruning
// experiments sweep (Kang's accelerator-aware shapes).
var BlockSizes = []int{4, 8}

// blockKey identifies a derived block-pruned model: the global pruning
// percentage and the tile edge.
type blockKey struct{ level, block int }

// BlockModel returns (deriving and caching on first use) the
// block-pruned counterpart of the unstructured model at the given
// pruning level: the same baseline, the same target global sparsity and
// the same retrain schedule, with only the pruning rule swapped for
// b×b tiles. Safe for concurrent callers; the first one retrains while
// the rest wait.
func (s *System) BlockModel(level, block int) (*dnn.Network, pruning.Report, error) {
	s.blockMu.Lock()
	defer s.blockMu.Unlock()
	return s.blockModelLocked(level, block)
}

func (s *System) blockModelLocked(level, block int) (*dnn.Network, pruning.Report, error) {
	k := blockKey{level, block}
	if net, ok := s.blockModels[k]; ok {
		return net, s.blockReports[k], nil
	}
	baseline, ok := s.Models[0]
	if !ok {
		return nil, pruning.Report{}, fmt.Errorf("asr: no baseline model to block-prune")
	}
	if level <= 0 || level >= 100 {
		return nil, pruning.Report{}, fmt.Errorf("asr: block pruning level %d out of (0,100)", level)
	}
	// Whole tiles die together, taking individually-large weights with
	// them, so the block models start from more damage than unstructured
	// at the same sparsity. Same retrain loop, run for 3x the epochs —
	// the structured recovery budget that keeps block WER within the
	// acceptance band of unstructured (docs/BLOCK.md).
	retrain := s.Scale.Retrain
	retrain.Epochs *= 3
	res, err := pruning.BlockPruneAndRetrain(baseline, s.TrainSamples, pruning.BlockConfig{
		Block:   block,
		Target:  float64(level) / 100,
		Retrain: retrain,
	})
	if err != nil {
		return nil, pruning.Report{}, fmt.Errorf("asr: block-pruning to %d%% (b=%d): %w", level, block, err)
	}
	if s.blockModels == nil {
		s.blockModels = map[blockKey]*dnn.Network{}
		s.blockReports = map[blockKey]pruning.Report{}
	}
	s.blockModels[k] = res.Net
	s.blockReports[k] = res.Report
	return res.Net, res.Report, nil
}

// BlockScores returns (computing and caching on first use) the
// per-frame acoustic log-posteriors of every test utterance under the
// block-pruned model at the given level and tile edge — the block
// counterpart of Scores. The auto plan scoreTestSet compiles runs the
// bsr kernel, which is bit-identical to dense, so these scores depend
// only on the block-pruned weights, not on the kernel choice.
func (s *System) BlockScores(level, block int) ([][][]float64, error) {
	s.blockMu.Lock()
	defer s.blockMu.Unlock()
	k := blockKey{level, block}
	if sc, ok := s.blockScores[k]; ok {
		return sc, nil
	}
	net, _, err := s.blockModelLocked(level, block)
	if err != nil {
		return nil, err
	}
	sc := s.scoreTestSet(net)
	if s.blockScores == nil {
		s.blockScores = map[blockKey][][][]float64{}
	}
	s.blockScores[k] = sc
	return sc, nil
}
