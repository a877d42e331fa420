// Forward-pass benchmarks. BenchmarkForward times every FC backend at
// the paper's pruning levels p0, p50 and p90; BenchmarkForwardTail
// times the steps between and after the FC layers — p-norm, renorm and
// log-softmax — on each body. BenchmarkForwardFloors is the acceptance
// gate: sparse >= 1.8x dense at p90, bsr >= 1.15x sparse there, dense
// no slower than bsr on the unpruned stack, and the AVX p-norm >= 2x
// the scalar loop. Run the gate with
//
//	go test -run '^$' -bench '^BenchmarkForwardFloors$' -benchtime 1x ./internal/dnn
package dnn_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
)

// benchNet is an FC-only stack near the paper's 4.5M-weight acoustic
// model, so it times the FC kernels alone; BenchmarkForwardTail times
// the pooling, renorm and log-softmax steps.
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
// backend and pruning level. At p90 the sparse kernel touches ~10% of
// the weights the dense panels stream. Its SELL-4 groups put four
// rows' nonzeros in one YMM step, but each step still loads four
// column indices and gathers four inputs with scalar loads, against
// dense's one contiguous pass over its 16-row panels — hence ~5-6x,
// not 10x; at p0 sparse degenerates to dense work plus indirection,
// which is why auto only flips below the density threshold. The bsr
// series runs on the block-pruned stack at the same global sparsity —
// the apples-to-apples layout comparison of docs/BLOCK.md — and its
// acceptance bar is >= 1.15x over sparse at p90 (one index per
// 64-weight tile instead of one per weight, and each tile's inputs
// consecutive rather than gathered). At p0 bsr stores
// every tile and skips nothing, so it must not beat dense there: both
// run AVX, but the dense panels score two panels per pass, two weight
// streams sharing each input load, while bsr walks one block row's
// single tile stream and pays an index per tile.
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

// tailStep is one non-FC step of a forward pass at the served small
// model's shapes: p-norm of 400 inputs in groups of 5, renorm of 80,
// log-softmax of 48.
type tailStep struct {
	name string
	run  func()
}

func tailSteps() []tailStep {
	rng := mat.NewRNG(5)
	in := make([]float64, 400)
	rng.FillNorm(in, 0, 1)
	pnorm, pooled := dnn.NewPNorm("P", 400, 5), make([]float64, 80)
	renorm, normed := dnn.NewRenorm("N", 80), make([]float64, 80)
	logits, post := make([]float64, 48), make([]float64, 48)
	rng.FillNorm(logits, 0, 3)
	return []tailStep{
		{"pnorm-400-5", func() { pnorm.Forward(pooled, in) }},
		{"renorm-80", func() { renorm.Forward(normed, pooled) }},
		{"logsoftmax-48", func() { mat.LogSoftmax(post, logits) }},
	}
}

// BenchmarkForwardTail times each non-FC step on the portable body
// and, where the CPU has AVX, on the AVX body (log-softmax has one
// body, so its two series time the same loop). The FC kernels shrink
// with pruning and these steps do not, so at p90 they are a large
// share of a forward pass.
func BenchmarkForwardTail(b *testing.B) {
	for _, step := range tailSteps() {
		b.Run(step.name+"/portable", func(b *testing.B) {
			portable(func() {
				for i := 0; i < b.N; i++ {
					step.run()
				}
			})
		})
		if mat.HasAVX() {
			b.Run(step.name+"/avx", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					step.run()
				}
			})
		}
	}
}

// The forward floors. The sparse floor is the ratio the scalar CSR
// body measured against the row-blocked dense kernel over ten runs
// (lower quartile 2.82x, median 2.95x) divided by 1.5 and rounded
// down; the SELL-4 body reads 5.0-6.4x against it. The p0 floor pins
// the dense kernel's lead: dense lost to bsr at p0 while each dense
// row was one serial add chain, and with bsr on AVX tiles it holds
// because the dense panels read two weight streams per pass. The
// p-norm floor pins the AVX body's lead over the scalar loop, its
// portable body, on the served 400→80 shape: 4.7-6.8x over seven runs
// on a 2-vCPU host (98-141 ns against 566-881 ns per call; 4.7x
// inside a full ci.sh run).
const (
	floorSparseVsDenseP90   = 1.8
	floorBSRVsSparseP90     = 1.15
	floorDenseVsBSRP0       = 1.0
	floorPNormAVXVsPortable = 2.0
)

// BenchmarkForwardFloors gates the forward kernels' speed ratios on
// the 4.5M-weight FC stack, and the p-norm bodies' on the served
// shape. One op is the whole gate, so run it with -benchtime 1x: three
// rounds, each timing floorPasses forward passes of every FC series in
// turn, then pnormCalls calls of each p-norm body, and the per-series
// minimum over the rounds. Min of 3 gates on the machine, not the
// noise, and interleaving the series inside each round keeps one burst
// of host load from spoiling all three samples of one series. The loops are timed directly: testing.Benchmark inside a benchmark
// deadlocks on the testing package's benchmark lock. Without AVX the
// p-norm series do not run.
func BenchmarkForwardFloors(b *testing.B) {
	const rounds, floorPasses, pnormCalls = 3, 15, 5000
	compile := func(net *dnn.Network, backend dnn.Backend) *dnn.Exec {
		return dnn.Compile(net, dnn.PlanConfig{Backend: backend}).NewExec()
	}
	p90 := benchNet(0.9)
	series := []struct {
		name string
		ex   *dnn.Exec
		best time.Duration
	}{
		{name: "dense/p0", ex: compile(benchNet(0), dnn.BackendDense)},
		{name: "bsr/p0", ex: compile(benchBlockNet(0), dnn.BackendBSR)},
		{name: "dense/p90", ex: compile(p90, dnn.BackendDense)},
		{name: "sparse/p90", ex: compile(p90, dnn.BackendSparse)},
		{name: "bsr/p90", ex: compile(benchBlockNet(0.9), dnn.BackendBSR)},
	}
	in := make([]float64, p90.InDim())
	mat.NewRNG(3).FillNorm(in, 0, 1)
	out := make([]float64, p90.OutDim())
	for i := range series {
		series[i].ex.LogPosteriors(out, in) // warm scratch and caches
	}
	pnorm := tailSteps()[0].run
	timePNorm := func() time.Duration {
		t0 := time.Now()
		for j := 0; j < pnormCalls; j++ {
			pnorm()
		}
		return time.Since(t0)
	}
	var pnormAVX, pnormPortable time.Duration
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		for i := range series {
			t0 := time.Now()
			for j := 0; j < floorPasses; j++ {
				series[i].ex.LogPosteriors(out, in)
			}
			if d := time.Since(t0); r == 0 || d < series[i].best {
				series[i].best = d
			}
		}
		if !mat.HasAVX() {
			continue
		}
		if d := timePNorm(); r == 0 || d < pnormAVX {
			pnormAVX = d
		}
		portable(func() {
			if d := timePNorm(); r == 0 || d < pnormPortable {
				pnormPortable = d
			}
		})
	}
	for _, s := range series {
		b.Logf("%-10s %8.0f ns/pass (min of %d)", s.name, float64(s.best.Nanoseconds())/floorPasses, rounds)
	}
	ratio := func(num, den int) float64 {
		return float64(series[num].best) / float64(series[den].best)
	}
	sparseVsDense, bsrVsSparse, denseVsBSR := ratio(2, 3), ratio(3, 4), ratio(1, 0)
	b.ReportMetric(sparseVsDense, "sparse-vs-dense-p90")
	b.ReportMetric(bsrVsSparse, "bsr-vs-sparse-p90")
	b.ReportMetric(denseVsBSR, "dense-vs-bsr-p0")
	if sparseVsDense < floorSparseVsDenseP90 {
		b.Fatalf("sparse is %.2fx dense at p90, floor %.2fx", sparseVsDense, floorSparseVsDenseP90)
	}
	if bsrVsSparse < floorBSRVsSparseP90 {
		b.Fatalf("bsr is %.2fx sparse at p90, floor %.2fx", bsrVsSparse, floorBSRVsSparseP90)
	}
	if denseVsBSR < floorDenseVsBSRP0 {
		b.Fatalf("dense is %.2fx bsr at p0, floor %.2fx", denseVsBSR, floorDenseVsBSRP0)
	}
	if !mat.HasAVX() {
		b.Log("no AVX: the p-norm floor is skipped")
		return
	}
	for _, p := range []struct {
		name string
		best time.Duration
	}{{"pnorm/avx", pnormAVX}, {"pnorm/portable", pnormPortable}} {
		b.Logf("%-14s %8.0f ns/call (min of %d)", p.name, float64(p.best.Nanoseconds())/pnormCalls, rounds)
	}
	pnormAVXVsPortable := float64(pnormPortable) / float64(pnormAVX)
	b.ReportMetric(pnormAVXVsPortable, "pnorm-avx-vs-portable")
	if pnormAVXVsPortable < floorPNormAVXVsPortable {
		b.Fatalf("the AVX p-norm is %.2fx the portable body, floor %.2fx", pnormAVXVsPortable, floorPNormAVXVsPortable)
	}
}

// BenchmarkDensityCrossover times the FC kernels on one served hidden
// layer (80 inputs, 400 outputs) whose weights are kept at 10 % to 90 %
// density: dense panels and SELL-4 under a random unstructured mask,
// BSR under a random 8×8 block mask and a random 4×4 one (its portable
// body even on AVX hosts). Each runs on the AVX bodies (avx/, AVX hosts
// only) and on the portable Go bodies every other build runs
// (portable/). Where each sparse kernel's time crosses the dense one's
// sets the density thresholds of that body: DefaultDensityThreshold and
// BSRDensityThreshold for AVX, PortableDensityThreshold and
// PortableBSRDensityThreshold for the portable bodies.
func BenchmarkDensityCrossover(b *testing.B) {
	bodies := []struct {
		name string
		run  func(func())
	}{{"portable", portable}}
	if mat.HasAVX() {
		bodies = append([]struct {
			name string
			run  func(func())
		}{{"avx", func(f func()) { f() }}}, bodies...)
	}
	for _, body := range bodies {
		for _, pct := range []int{10, 15, 20, 25, 30, 40, 60, 80, 90} {
			for _, k := range []struct {
				name    string
				backend dnn.Backend
				mask    int // pruneRandomly's kind
			}{{"dense", dnn.BackendDense, 1}, {"sparse", dnn.BackendSparse, 1}, {"bsr8", dnn.BackendBSR, 3}, {"bsr4", dnn.BackendBSR, 2}} {
				rng := mat.NewRNG(int64(pct))
				fc := dnn.NewFC("fc", 80, 400, 0.5, rng)
				pruneRandomly(fc, rng, k.mask, float64(pct)/100)
				ex := dnn.Compile(dnn.NewNetwork(fc), dnn.PlanConfig{Backend: k.backend}).NewExec()
				in := make([]float64, 80)
				rng.FillNorm(in, 0, 1)
				body.run(func() {
					b.Run(fmt.Sprintf("%s/%s/d%02d", body.name, k.name, pct), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							ex.Logits(in)
						}
					})
				})
			}
		}
	}
}
