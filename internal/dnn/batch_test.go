package dnn

import (
	"math"
	"sort"
	"testing"

	"repro/internal/mat"
)

// maskSmallest prunes the smallest-magnitude fraction of each
// trainable FC's weights, the magnitude criterion of Han et al.,
// without the retraining step (the masks are all the equivalence test
// needs).
func maskSmallest(net *Network, fraction float64) {
	for _, fc := range net.FCs() {
		if !fc.Trainable {
			continue
		}
		mags := append([]float64(nil), fc.W.Data...)
		for i, v := range mags {
			mags[i] = math.Abs(v)
		}
		sort.Float64s(mags)
		cut := mags[int(fraction*float64(len(mags)-1))]
		mask := make([]bool, len(fc.W.Data))
		for i, v := range fc.W.Data {
			mask[i] = math.Abs(v) > cut
		}
		fc.Mask = mask
		fc.ApplyMask()
	}
}

// TestForwardBatchBitIdentical pins Exec.LogPosteriorsBatch, the
// batched entry point the benchmark's probes call: over an
// interleaved, shuffled mix of frames from several simulated sessions
// it must be bit-identical (Float64bits equal) to scoring each frame
// alone with LogPosteriors, on every float backend, at every pruning
// level and for every batch size. A dst/ins length mismatch panics.
func TestForwardBatchBitIdentical(t *testing.T) {
	topo := Topology{FeatDim: 6, Context: 1, Hidden: 24, PoolGroup: 4, HiddenBlocks: 2, Senones: 15}
	rng := mat.NewRNG(99)
	backends := []Backend{BackendAuto, BackendDense, BackendSparse, BackendBSR}

	for _, prune := range []float64{0, 0.5, 0.9} {
		net := topo.Build(mat.NewRNG(7))
		if prune > 0 {
			maskSmallest(net, prune)
		}

		// Frames from 4 "sessions", interleaved and shuffled so batch
		// composition never matches any per-session order.
		const sessions, perSession = 4, 6
		frames := make([][]float64, 0, sessions*perSession)
		for s := 0; s < sessions; s++ {
			for f := 0; f < perSession; f++ {
				in := make([]float64, topo.InputDim())
				rng.FillNorm(in, float64(s), 1.5)
				frames = append(frames, in)
			}
		}
		rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })

		// Reference: one frame at a time through a dense plan.
		ref := Compile(net, PlanConfig{Backend: BackendDense}).NewExec()
		want := make([][]float64, len(frames))
		for i, in := range frames {
			want[i] = make([]float64, topo.Senones)
			ref.LogPosteriors(want[i], in)
		}

		for _, backend := range backends {
			ex := Compile(net, PlanConfig{Backend: backend}).NewExec()
			for _, batchSize := range []int{1, 3, 7, len(frames)} {
				got := make([][]float64, len(frames))
				for i := range got {
					got[i] = make([]float64, topo.Senones)
				}
				for lo := 0; lo < len(frames); lo += batchSize {
					hi := min(lo+batchSize, len(frames))
					ex.LogPosteriorsBatch(got[lo:hi], frames[lo:hi])
				}
				for i := range want {
					for k := range want[i] {
						if math.Float64bits(want[i][k]) != math.Float64bits(got[i][k]) {
							t.Fatalf("%s prune %.0f%% batch %d: frame %d senone %d: %v != %v",
								backend, 100*prune, batchSize, i, k, got[i][k], want[i][k])
						}
					}
				}
			}
		}
	}

	ex := Compile(topo.Build(mat.NewRNG(7)), PlanConfig{}).NewExec()
	defer func() {
		if recover() == nil {
			t.Fatal("LogPosteriorsBatch accepted 1 dst row for 2 inputs")
		}
	}()
	in := make([]float64, topo.InputDim())
	ex.LogPosteriorsBatch([][]float64{make([]float64, topo.Senones)}, [][]float64{in, in})
}

// TestForwardBatchMatchesPrunedFraction sanity-checks the mask helper
// so the property test really exercises 50% and 90% sparse weights.
func TestForwardBatchMatchesPrunedFraction(t *testing.T) {
	topo := Topology{FeatDim: 6, Context: 1, Hidden: 24, PoolGroup: 4, HiddenBlocks: 2, Senones: 15}
	net := topo.Build(mat.NewRNG(7))
	maskSmallest(net, 0.9)
	if g := net.GlobalPruning(); g < 0.85 || g > 0.95 {
		t.Fatalf("mask helper produced global pruning %.3f, want ~0.9", g)
	}
}
