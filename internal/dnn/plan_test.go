// Backend-equivalence and ownership tests for compiled inference
// plans. This is an external test package so it can drive the real
// pruning pipeline (internal/pruning imports dnn) against the plans.
package dnn_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
)

func testTopology() dnn.Topology {
	return dnn.Topology{FeatDim: 6, Context: 1, Hidden: 24, PoolGroup: 4, HiddenBlocks: 2, Senones: 15}
}

// testFrames returns deterministic pseudo-utterance frames spanning
// several input distributions.
func testFrames(topo dnn.Topology, n int) [][]float64 {
	rng := mat.NewRNG(42)
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = make([]float64, topo.InputDim())
		rng.FillNorm(frames[i], float64(i%5)-2, 1.5)
	}
	return frames
}

// prunedNet builds a freshly trained-free network pruned to the given
// global fraction (0 = dense baseline) via the real magnitude rule.
func prunedNet(t testing.TB, target float64) *dnn.Network {
	t.Helper()
	net := testTopology().Build(mat.NewRNG(7))
	if target > 0 {
		quality, err := pruning.CalibrateQuality(net, target)
		if err != nil {
			t.Fatal(err)
		}
		pruning.Prune(net, quality)
	}
	return net
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPlanBackendsBitIdentical is the backend-equivalence property
// test: log-posteriors computed through the dense plan, the sparse
// plan (single-frame and batched), and auto must be bit-identical
// (Float64bits equal) at 0, 50 and 90% pruning. The sparse kernel
// accumulates each neuron's nonzeros in ascending column order — the
// same order the dense sum visits them — so skipping exact zeros
// cannot perturb the accumulation.
func TestPlanBackendsBitIdentical(t *testing.T) {
	topo := testTopology()
	frames := testFrames(topo, 24)
	for _, target := range []float64{0, 0.5, 0.9} {
		t.Run(fmt.Sprintf("p%.0f", 100*target), func(t *testing.T) {
			net := prunedNet(t, target)
			dense := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
			sparse := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendSparse}).NewExec()
			auto := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendAuto}).NewExec()

			want := make([][]float64, len(frames))
			got := make([]float64, net.OutDim())
			for i, f := range frames {
				want[i] = make([]float64, net.OutDim())
				dense.LogPosteriors(want[i], f)

				sparse.LogPosteriors(got, f)
				if !bitsEqual(want[i], got) {
					t.Fatalf("frame %d: sparse backend differs from dense", i)
				}
				auto.LogPosteriors(got, f)
				if !bitsEqual(want[i], got) {
					t.Fatalf("frame %d: auto backend differs from dense", i)
				}
			}

			// batched-sparse across all frames at once
			batched := make([][]float64, len(frames))
			for i := range batched {
				batched[i] = make([]float64, net.OutDim())
			}
			sparse.LogPosteriorsBatch(batched, frames)
			for i := range frames {
				if !bitsEqual(want[i], batched[i]) {
					t.Fatalf("frame %d: batched-sparse differs from dense", i)
				}
			}
		})
	}
}

// TestPlanSurvivesPruneThenRetrain pins backend equivalence after the
// full Han pipeline (prune, masked retrain): the retrained weights
// keep their masks, the recompiled plans see the retrained values,
// and dense/sparse/batched-sparse still agree bit for bit.
func TestPlanSurvivesPruneThenRetrain(t *testing.T) {
	topo := testTopology()
	frames := testFrames(topo, 12)
	rng := mat.NewRNG(17)
	samples := make([]dnn.Sample, 64)
	for i := range samples {
		in := make([]float64, topo.InputDim())
		rng.FillNorm(in, 0, 1)
		samples[i] = dnn.Sample{Input: in, Label: i % topo.Senones}
	}
	baseline := topo.Build(mat.NewRNG(7))
	dnn.NewTrainer(baseline).Train(samples, dnn.TrainConfig{Epochs: 1, BatchSize: 8, LearningRate: 0.02, Seed: 3})

	res, err := pruning.PruneAndRetrain(baseline, samples, pruning.Config{
		Target:  0.9,
		Retrain: dnn.TrainConfig{Epochs: 2, BatchSize: 8, LearningRate: 0.02, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	if got := net.GlobalPruning(); got < 0.85 {
		t.Fatalf("prune-then-retrain resurrected weights: global pruning %.3f", got)
	}

	dense := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
	sparse := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendSparse}).NewExec()
	want := make([]float64, net.OutDim())
	got := make([]float64, net.OutDim())
	batched := make([][]float64, len(frames))
	for i := range batched {
		batched[i] = make([]float64, net.OutDim())
	}
	sparse.LogPosteriorsBatch(batched, frames)
	for i, f := range frames {
		dense.LogPosteriors(want, f)
		sparse.LogPosteriors(got, f)
		if !bitsEqual(want, got) {
			t.Fatalf("frame %d: sparse differs from dense after retrain", i)
		}
		if !bitsEqual(want, batched[i]) {
			t.Fatalf("frame %d: batched-sparse differs from dense after retrain", i)
		}
	}
}

// TestAutoBackendKernelSelection pins the auto policy: at 90% pruning
// every pruned FC runs the sparse kernel, while the dense baseline
// (and the frozen FC0 layer, which is never pruned) stays dense.
func TestAutoBackendKernelSelection(t *testing.T) {
	dense := prunedNet(t, 0)
	for i, k := range dnn.Compile(dense, dnn.PlanConfig{}).Kernels() {
		if k == "sparse" {
			t.Errorf("dense baseline: layer %d compiled sparse", i)
		}
	}

	pruned := prunedNet(t, 0.9)
	kernels := dnn.Compile(pruned, dnn.PlanConfig{}).Kernels()
	var sawSparse bool
	for i, l := range pruned.Layers {
		fc, ok := l.(*dnn.FC)
		if !ok {
			continue
		}
		switch {
		case !fc.Trainable && kernels[i] != "dense":
			t.Errorf("frozen layer %s: kernel %s, want dense", fc.LayerName, kernels[i])
		case fc.Trainable && kernels[i] != "sparse":
			t.Errorf("pruned layer %s (density %.2f): kernel %s, want sparse",
				fc.LayerName, float64(fc.W.NNZ())/float64(fc.W.Rows*fc.W.Cols), kernels[i])
		case fc.Trainable:
			sawSparse = true
		}
	}
	if !sawSparse {
		t.Fatal("auto backend never selected the sparse kernel at 90% pruning")
	}
}

// TestPlanSharedConcurrent is the ownership-contract race test: one
// auto plan shared by many goroutines, each scoring through its own
// Exec, must produce the dense reference bit for bit (run under -race
// by ci.sh).
func TestPlanSharedConcurrent(t *testing.T) {
	topo := testTopology()
	frames := testFrames(topo, 32)
	net := prunedNet(t, 0.9)
	plan := dnn.Compile(net, dnn.PlanConfig{})

	ref := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
	want := make([][]float64, len(frames))
	for i, f := range frames {
		want[i] = make([]float64, net.OutDim())
		ref.LogPosteriors(want[i], f)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := plan.NewExec()
			got := make([]float64, net.OutDim())
			for pass := 0; pass < 4; pass++ {
				for i := (w + pass) % len(frames); i < len(frames); i++ {
					ex.LogPosteriors(got, frames[i])
					if !bitsEqual(want[i], got) {
						errs[w] = fmt.Errorf("worker %d frame %d: concurrent exec differs", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvaluateConcurrent pins that dnn.Evaluate shares no scratch
// between callers: two goroutines evaluating one Network at once must
// not race (run under -race by ci.sh) and must agree with a serial run.
func TestEvaluateConcurrent(t *testing.T) {
	topo := testTopology()
	net := prunedNet(t, 0.9)
	samples := make([]dnn.Sample, 0, 32)
	for i, f := range testFrames(topo, 32) {
		samples = append(samples, dnn.Sample{Input: f, Label: i % topo.Senones})
	}
	var want [3]float64
	want[0], want[1], want[2] = dnn.Evaluate(net, samples)

	var got [2][3]float64
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g][0], got[g][1], got[g][2] = dnn.Evaluate(net, samples)
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != want {
			t.Errorf("goroutine %d: Evaluate = %v, serial %v", g, got[g], want)
		}
	}
}

// TestPlanOwnsWeights pins the snapshot contract: every FC kernel
// scores its own copy of the weights and bias taken at Compile, so a
// compiled plan of any backend is deaf to later writes to the source
// network.
func TestPlanOwnsWeights(t *testing.T) {
	for _, backend := range []dnn.Backend{dnn.BackendDense, dnn.BackendSparse, dnn.BackendBSR} {
		net := prunedNet(t, 0.5)
		in := testFrames(testTopology(), 1)[0]
		ex := dnn.Compile(net, dnn.PlanConfig{Backend: backend}).NewExec()
		before := append([]float64(nil), ex.Logits(in)...)
		for _, fc := range net.FCs() {
			mat.Scale(fc.W.Data, 2, fc.W.Data)
			mat.Fill(fc.B, 1)
		}
		if !bitsEqual(before, ex.Logits(in)) {
			t.Errorf("%s plan changed its logits after a write to the source network", backend)
		}
	}
}

// TestParseBackend pins the -backend vocabulary: the four kernel
// policies parse, "" means auto, and anything else — including the
// names of the two retired int8 kernels, dense and sparse — is refused
// with the valid list.
func TestParseBackend(t *testing.T) {
	for _, s := range []string{"auto", "dense", "sparse", "bsr"} {
		if b, err := dnn.ParseBackend(s); err != nil || string(b) != s {
			t.Errorf("ParseBackend(%q) = %v, %v", s, b, err)
		}
	}
	if b, err := dnn.ParseBackend(""); err != nil || b != dnn.BackendAuto {
		t.Errorf(`ParseBackend("") = %v, %v; want auto`, b, err)
	}
	for _, s := range []string{"int8", string(dnn.BackendSparse) + "_int8", "int4"} {
		if _, err := dnn.ParseBackend(s); err == nil ||
			!strings.Contains(err.Error(), "auto, dense, sparse, bsr") {
			t.Errorf("ParseBackend(%q) should fail listing auto, dense, sparse, bsr: %v", s, err)
		}
	}
}

// TestDescribeMatchesKernels pins that Describe's kernel names come
// from the same source as Kernels() for every backend, so a new kernel
// can never make the startup log lie.
func TestDescribeMatchesKernels(t *testing.T) {
	net := prunedNet(t, 0.9)
	for _, b := range []dnn.Backend{dnn.BackendAuto, dnn.BackendDense, dnn.BackendSparse, dnn.BackendBSR} {
		plan := dnn.Compile(net, dnn.PlanConfig{Backend: b})
		kernels := plan.Kernels()
		var want []string
		for i, l := range net.Layers {
			if fc, ok := l.(*dnn.FC); ok {
				want = append(want, fmt.Sprintf("%s:%s", fc.LayerName, kernels[i]))
			}
		}
		desc := plan.Describe()
		fields := strings.Fields(desc)
		if len(fields) != len(want) {
			t.Fatalf("%s: Describe has %d entries, want %d: %q", b, len(fields), len(want), desc)
		}
		for i, f := range fields {
			if !strings.HasPrefix(f, want[i]+"(") {
				t.Errorf("%s: Describe entry %d = %q, want prefix %q", b, i, f, want[i])
			}
		}
	}
}
