package dnn

import "repro/internal/obs"

// DNN-path metrics (see docs/OBSERVABILITY.md). Forward passes are
// counted for inference and training alike; the nnz gauges are
// published whenever a model is pruned (internal/pruning) or loaded
// from disk, so they describe the most recently produced network.
var (
	obsForwardPasses = obs.NewCounter("dnn.forward_passes", "passes",
		"network forward passes (one per spliced acoustic frame)")
	obsForwardTime = obs.NewTimer("dnn.forward_seconds",
		"wall-clock seconds per network forward pass")
	obsLayerTime = obs.NewTimer("dnn.layer_eval_seconds",
		"wall-clock seconds per layer evaluation within a forward pass")
	obsNNZ = obs.NewGauge("dnn.nnz", "weights",
		"non-zero FC weights of the most recently pruned/loaded network")
	obsPrunedFraction = obs.NewGauge("dnn.pruned_fraction", "fraction",
		"global pruning fraction of the most recently pruned/loaded network")

	// Compiled-plan metrics (plan.go): one compile counter, the
	// per-FC-layer weight density observed at compile time, and one
	// timer family keyed by compiled kernel name so the per-kernel
	// split of forward time (dense/sparse/int8/sparse_int8) is directly
	// readable from /metrics. Children are resolved once at plan
	// compile time (planLayer.timer), so the hot path never touches the
	// family's map; a new kernel implementation gets its timing series
	// by existing.
	obsPlanCompiles = obs.NewCounter("dnn.plan_compiles", "plans",
		"inference plans compiled (first use and every invalidation)")
	obsPlanLayerDensity = obs.NewHistogram("dnn.plan_layer_density", "fraction",
		"per-FC-layer weight density (NNZ/weights) observed at plan compile time",
		[]float64{0.05, 0.1, 0.2, 1.0 / 3, 0.5, 0.75, 0.9})
	obsKernelTime = obs.NewTimerFamily("dnn.kernel_seconds", "kernel",
		"wall-clock seconds per FC kernel evaluation of one frame, keyed by compiled kernel name")
)

// PublishWeightStats records the network's non-zero weight count and
// global pruning fraction in the observability gauges. Called by
// internal/pruning after a prune+retrain and by LoadFile; harmless
// (and free) while observation is disabled.
func PublishWeightStats(n *Network) {
	active := 0
	for _, fc := range n.FCs() {
		active += fc.ActiveWeights()
	}
	obsNNZ.Set(float64(active))
	obsPrunedFraction.Set(n.GlobalPruning())
}
