// Dense-vs-sparse forward benchmarks at the paper's pruning levels.
// ci.sh runs BenchmarkForward and distills the ns/op numbers into
// BENCH_dnn.json; the acceptance bars are sparse >= 1.8x dense on the
// 90%-pruned FC stack with -backend auto picking it automatically,
// bsr >= 1.15x sparse there, and dense no slower than bsr on the
// unpruned stack.
package dnn_test

import (
	"fmt"
	"testing"

	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
)

// benchNet is an FC-heavy stack near the paper's 4.5M-weight acoustic
// model, so kernel time — not pooling/renorm overhead — dominates the
// measurement.
func benchNet(target float64) *dnn.Network {
	rng := mat.NewRNG(11)
	net := dnn.NewNetwork(
		dnn.NewFC("fc1", 360, 2000, 0.05, rng),
		dnn.NewFC("fc2", 2000, 2000, 0.05, rng),
		dnn.NewFC("fc3", 2000, 440, 0.05, rng),
	)
	if target > 0 {
		quality, err := pruning.CalibrateQuality(net, target)
		if err != nil {
			panic(err)
		}
		pruning.Prune(net, quality)
	}
	return net
}

// benchBlockNet is benchNet with the block rule (8×8 tiles) swapped
// in: the same stack block-pruned to the same global sparsity, which
// is the layout the bsr kernel exists for. At target 0 the grid is
// left dense — forcing BackendBSR then stores every tile.
func benchBlockNet(target float64) *dnn.Network {
	rng := mat.NewRNG(11)
	net := dnn.NewNetwork(
		dnn.NewFC("fc1", 360, 2000, 0.05, rng),
		dnn.NewFC("fc2", 2000, 2000, 0.05, rng),
		dnn.NewFC("fc3", 2000, 440, 0.05, rng),
	)
	if target > 0 {
		quality, err := pruning.CalibrateBlockQuality(net, 8, target)
		if err != nil {
			panic(err)
		}
		pruning.BlockPrune(net, quality, 8)
	}
	return net
}

// BenchmarkForward measures one single-frame forward pass per
// backend and pruning level. At p90 the sparse CSR kernel touches ~10%
// of the weights the dense rows walk, but pay an index load and a
// gathered input read per weight, against dense's four add chains in
// flight over contiguous rows — hence ~3x, not 10x; at p0 sparse
// degenerates to dense work plus indirection, which is why auto only
// flips below the density threshold. The bsr series runs on the
// block-pruned stack at the same global sparsity — the apples-to-apples
// layout comparison of docs/BLOCK.md — and its acceptance bar is
// >= 1.15x over CSR at p90 (one index per 64-weight tile instead of
// one per weight, dense unrolled micro-tiles). At p0 bsr stores every
// tile and skips nothing, so it must not beat dense there.
func BenchmarkForward(b *testing.B) {
	for _, level := range []struct {
		name   string
		target float64
	}{{"p0", 0}, {"p50", 0.5}, {"p90", 0.9}} {
		net := benchNet(level.target)
		in := make([]float64, net.InDim())
		mat.NewRNG(3).FillNorm(in, 0, 1)
		out := make([]float64, net.OutDim())
		for _, backend := range []dnn.Backend{dnn.BackendDense, dnn.BackendSparse} {
			ex := dnn.Compile(net, dnn.PlanConfig{Backend: backend}).NewExec()
			b.Run(fmt.Sprintf("%s/%s", backend, level.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ex.LogPosteriors(out, in)
				}
			})
		}
		blockNet := benchBlockNet(level.target)
		ex := dnn.Compile(blockNet, dnn.PlanConfig{Backend: dnn.BackendBSR}).NewExec()
		b.Run(fmt.Sprintf("bsr/%s", level.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex.LogPosteriors(out, in)
			}
		})
	}
}

// BenchmarkForwardAuto pins what -backend auto buys without any flag:
// on the 90%-pruned stack its plan compiles every FC to the sparse
// kernel, so its ns/op tracks BenchmarkForward/sparse/p90.
func BenchmarkForwardAuto(b *testing.B) {
	net := benchNet(0.9)
	plan := dnn.Compile(net, dnn.PlanConfig{})
	for i, k := range plan.Kernels() {
		if k != "sparse" {
			b.Fatalf("auto backend compiled layer %d as %s on the 90%%-pruned stack", i, k)
		}
	}
	ex := plan.NewExec()
	in := make([]float64, net.InDim())
	mat.NewRNG(3).FillNorm(in, 0, 1)
	out := make([]float64, net.OutDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.LogPosteriors(out, in)
	}
}
