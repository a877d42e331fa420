// BSR backend tests: block-pruned bit-identity, auto's density-policy
// selection boundary, and the shared-plan ownership contract for the
// bsr kernel.
package dnn_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
)

// blockTopology is wider than testTopology so deep block targets stay
// reachable: the output layer keeps its strongest tile per block row
// (no dead senones), so a layer N columns wide can prune at most
// 1 - block/N of its weights — testTopology's 6-wide layers are a
// single 8-wide tile per row and cannot be block-pruned at 90% at all.
func blockTopology() dnn.Topology {
	return dnn.Topology{FeatDim: 32, Context: 1, Hidden: 192, PoolGroup: 2, HiddenBlocks: 2, Senones: 24}
}

// blockPrunedNet builds a network block-pruned to the given global
// fraction with the given tile edge (0 = dense baseline).
func blockPrunedNet(t testing.TB, target float64, block int) *dnn.Network {
	t.Helper()
	net := blockTopology().Build(mat.NewRNG(7))
	if target > 0 {
		quality, err := pruning.CalibrateBlockQuality(net, block, target)
		if err != nil {
			t.Fatal(err)
		}
		pruning.BlockPrune(net, quality, block)
	}
	return net
}

// TestPlanBSRBitIdentical extends the backend-equivalence property to
// the bsr kernel: at 0, 70 and 90% block pruning (b=4 and b=8), the
// forced bsr plan and the auto plan must match the dense plan bit for
// bit, single-frame and batched. At 0% the forced plan tiles the dense
// matrix (every tile stored) — still bit-identical, just not faster.
func TestPlanBSRBitIdentical(t *testing.T) {
	topo := blockTopology()
	frames := testFrames(topo, 24)
	for _, block := range []int{4, 8} {
		for _, target := range []float64{0, 0.7, 0.9} {
			t.Run(fmt.Sprintf("b%d_p%.0f", block, 100*target), func(t *testing.T) {
				net := blockPrunedNet(t, target, block)
				dense := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
				bsr := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendBSR}).NewExec()
				auto := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendAuto}).NewExec()

				want := make([][]float64, len(frames))
				got := make([]float64, net.OutDim())
				for i, f := range frames {
					want[i] = make([]float64, net.OutDim())
					dense.LogPosteriors(want[i], f)

					bsr.LogPosteriors(got, f)
					if !bitsEqual(want[i], got) {
						t.Fatalf("frame %d: bsr backend differs from dense", i)
					}
					auto.LogPosteriors(got, f)
					if !bitsEqual(want[i], got) {
						t.Fatalf("frame %d: auto backend differs from dense", i)
					}
				}

				batched := make([][]float64, len(frames))
				for i := range batched {
					batched[i] = make([]float64, net.OutDim())
				}
				bsr.LogPosteriorsBatch(batched, frames)
				for i := range frames {
					if !bitsEqual(want[i], batched[i]) {
						t.Fatalf("frame %d: batched-bsr differs from dense", i)
					}
				}
			})
		}
	}
}

// TestPlanBSRSurvivesPruneThenRetrain runs the full block pipeline
// (calibrate, block-prune, masked retrain) and pins that dense, CSR
// sparse and bsr plans still agree bit for bit on the retrained
// weights.
func TestPlanBSRSurvivesPruneThenRetrain(t *testing.T) {
	topo := blockTopology()
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

	res, err := pruning.BlockPruneAndRetrain(baseline, samples, pruning.BlockConfig{
		Block:   4,
		Target:  0.9,
		Retrain: dnn.TrainConfig{Epochs: 2, BatchSize: 8, LearningRate: 0.02, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	if got := net.GlobalPruning(); got < 0.8 {
		t.Fatalf("block prune-then-retrain resurrected weights: global pruning %.3f", got)
	}

	dense := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
	csr := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendSparse}).NewExec()
	bsr := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendBSR}).NewExec()
	want := make([]float64, net.OutDim())
	got := make([]float64, net.OutDim())
	for i, f := range frames {
		dense.LogPosteriors(want, f)
		bsr.LogPosteriors(got, f)
		if !bitsEqual(want, got) {
			t.Fatalf("frame %d: bsr differs from dense after retrain", i)
		}
		csr.LogPosteriors(got, f)
		if !bitsEqual(want, got) {
			t.Fatalf("frame %d: sparse differs from dense after retrain", i)
		}
	}
}

// TestDensityPolicyBoundary pins auto's density threshold
// (DefaultDensityThreshold, 1/3) with two models pruned to either side
// of it: every trainable FC of the sparser model must select the
// sparse-shaped kernel (bsr with block metadata, sparse without), and
// every one of the denser model must stay on dense.
func TestDensityPolicyBoundary(t *testing.T) {
	const sparser, denser = 0.7, 0.6 // pruned fractions either side of 2/3
	cases := []struct {
		name  string
		build func(target float64) *dnn.Network
		below string // kernel expected at or below the threshold
	}{
		{"auto_unstructured", func(f float64) *dnn.Network { return prunedNet(t, f) }, "sparse"},
		{"auto_block", func(f float64) *dnn.Network { return blockPrunedNet(t, f, 4) }, "bsr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, side := range []struct {
				target float64
				want   string
			}{{sparser, tc.below}, {denser, "dense"}} {
				net := tc.build(side.target)
				kernels := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendAuto}).Kernels()
				for i, l := range net.Layers {
					fc, ok := l.(*dnn.FC)
					if !ok || !fc.Trainable {
						continue
					}
					density := float64(fc.W.NNZ()) / float64(fc.WeightCount())
					if below := density <= dnn.DefaultDensityThreshold; below != (side.want != "dense") {
						t.Fatalf("p%.0f layer %s density %.3f is on the wrong side of %.3f to probe the boundary",
							100*side.target, fc.LayerName, density, dnn.DefaultDensityThreshold)
					}
					if kernels[i] != side.want {
						t.Errorf("p%.0f layer %s (density %.3f): kernel %s, want %s",
							100*side.target, fc.LayerName, density, kernels[i], side.want)
					}
				}
			}
		})
	}
}

// TestAutoBackendPrefersBSROverCSR pins the promotion rule: at 90%
// block pruning the auto plan runs bsr (not sparse) on every pruned
// layer, compiles both the BSR and CSR views (the simulator reads
// both), and Describe agrees with Kernels.
func TestAutoBackendPrefersBSROverCSR(t *testing.T) {
	net := blockPrunedNet(t, 0.9, 8)
	plan := dnn.Compile(net, dnn.PlanConfig{})
	kernels := plan.Kernels()
	sawBSR := false
	for i, l := range net.Layers {
		fc, ok := l.(*dnn.FC)
		if !ok {
			continue
		}
		if !fc.Trainable {
			if kernels[i] != "dense" {
				t.Errorf("frozen layer %s: kernel %s, want dense", fc.LayerName, kernels[i])
			}
			continue
		}
		if kernels[i] != "bsr" {
			t.Errorf("block-pruned layer %s: kernel %s, want bsr", fc.LayerName, kernels[i])
			continue
		}
		sawBSR = true
		if plan.BSR(i) == nil {
			t.Errorf("layer %s: no compiled BSR view", fc.LayerName)
		}
		if plan.Sparse(i) == nil {
			t.Errorf("layer %s: CSR view missing (simulator consumers rely on it)", fc.LayerName)
		}
	}
	if !sawBSR {
		t.Fatal("auto backend never selected bsr at 90% block pruning")
	}
	if want := "bsr"; !containsKernel(plan.Describe(), want) {
		t.Fatalf("Describe %q does not mention %s", plan.Describe(), want)
	}
}

func containsKernel(describe, kern string) bool {
	for i := 0; i+len(kern) <= len(describe); i++ {
		if describe[i:i+len(kern)] == kern {
			return true
		}
	}
	return false
}

// TestPlanBSRSharedConcurrent is the ownership-contract race test for
// the bsr kernel: one block-pruned plan shared by many goroutines must
// reproduce the serial reference bit for bit (run under -race by
// ci.sh).
func TestPlanBSRSharedConcurrent(t *testing.T) {
	topo := blockTopology()
	frames := testFrames(topo, 32)
	net := blockPrunedNet(t, 0.9, 8)
	plan := net.Plan()
	for _, k := range plan.Kernels() {
		if k == "bsr" {
			goto run
		}
	}
	t.Fatal("plan compiled no bsr kernel")
run:
	ref := plan.NewExec()
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
						errs[w] = fmt.Errorf("worker %d frame %d: concurrent bsr exec differs", w, i)
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

// TestBlockMetadataSurvivesSaveLoad pins the serialization contract:
// BlockSize round-trips through Save/Load, so a loaded block-pruned
// model auto-selects the bsr kernel just like the in-memory one.
func TestBlockMetadataSurvivesSaveLoad(t *testing.T) {
	net := blockPrunedNet(t, 0.9, 8)
	path := filepath.Join(t.TempDir(), "block.model")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := dnn.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, fc := range loaded.FCs() {
		if want := net.FCs()[i].BlockSize; fc.BlockSize != want {
			t.Fatalf("layer %s: BlockSize %d after load, want %d", fc.LayerName, fc.BlockSize, want)
		}
	}
	kernels := dnn.Compile(loaded, dnn.PlanConfig{}).Kernels()
	sawBSR := false
	for _, k := range kernels {
		if k == "bsr" {
			sawBSR = true
		}
	}
	if !sawBSR {
		t.Fatalf("loaded block model compiled kernels %v without bsr", kernels)
	}

	// and the loaded model scores bit-identically to the original
	in := testFrames(blockTopology(), 1)[0]
	if !bitsEqual(net.Logits(in), loaded.Logits(in)) {
		t.Fatal("loaded model logits differ from original")
	}
	_ = os.Remove(path)
}
