// Tests for the int8 backend at the plan layer: kernel selection,
// determinism, batch bit-identity, concurrent sharing, and the
// Describe/Kernels single-source contract. The end-to-end error budget
// (top-1 agreement, WER delta on the deterministic corpus) is pinned
// in internal/asr; here the bound is the per-frame logit error.
package dnn_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dnn"
)

func TestParseBackendInt8(t *testing.T) {
	b, err := dnn.ParseBackend("int8")
	if err != nil || b != dnn.BackendInt8 {
		t.Fatalf("ParseBackend(int8) = %v, %v", b, err)
	}
	if _, err := dnn.ParseBackend("int4"); err == nil ||
		!strings.Contains(err.Error(), "int8") {
		t.Fatalf("unknown-backend error should list int8: %v", err)
	}
}

// TestInt8KernelSelection pins the per-layer policy inside the int8
// backend: dense layers run the dense int8 kernel, layers at or below
// the density threshold run the sparse-int8 hybrid, and masked layers
// keep their compiled CSR view (the dnnsim contract) under int8 too.
func TestInt8KernelSelection(t *testing.T) {
	dense := prunedNet(t, 0)
	for i, k := range dnn.Compile(dense, dnn.PlanConfig{Backend: dnn.BackendInt8}).Kernels() {
		if k != "-" && k != "int8" {
			t.Errorf("dense baseline: layer %d kernel %s, want int8", i, k)
		}
	}

	pruned := prunedNet(t, 0.9)
	plan := dnn.Compile(pruned, dnn.PlanConfig{Backend: dnn.BackendInt8})
	kernels := plan.Kernels()
	var sawHybrid bool
	for i, l := range pruned.Layers {
		fc, ok := l.(*dnn.FC)
		if !ok {
			continue
		}
		switch {
		case !fc.Trainable && kernels[i] != "int8":
			t.Errorf("frozen layer %s: kernel %s, want int8", fc.LayerName, kernels[i])
		case fc.Trainable && kernels[i] != "sparse_int8":
			t.Errorf("pruned layer %s: kernel %s, want sparse_int8", fc.LayerName, kernels[i])
		case fc.Trainable:
			sawHybrid = true
			if plan.Sparse(i) == nil {
				t.Errorf("pruned layer %s: no compiled CSR view under int8", fc.LayerName)
			}
		}
	}
	if !sawHybrid {
		t.Fatal("int8 backend never selected the sparse_int8 hybrid at 90% pruning")
	}
}

// TestDescribeMatchesKernels pins satellite invariant: Describe's
// kernel names come from the same source as Kernels() for every
// backend, so a new kernel can never make the startup log lie.
func TestDescribeMatchesKernels(t *testing.T) {
	net := prunedNet(t, 0.9)
	for _, b := range []dnn.Backend{dnn.BackendAuto, dnn.BackendDense, dnn.BackendSparse, dnn.BackendInt8} {
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

// TestInt8LogitErrorBounded bounds the int8 backend's per-frame logit
// error against the float plan. This is the plan-level face of the
// error budget: small relative error here is what makes ≥99% top-1
// posterior agreement achievable downstream.
func TestInt8LogitErrorBounded(t *testing.T) {
	topo := testTopology()
	frames := testFrames(topo, 24)
	for _, target := range []float64{0, 0.7, 0.9} {
		t.Run(fmt.Sprintf("p%.0f", 100*target), func(t *testing.T) {
			net := prunedNet(t, target)
			ref := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
			q := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendInt8}).NewExec()
			for i, f := range frames {
				want := append([]float64(nil), ref.Logits(f)...)
				got := q.Logits(f)
				var num, den float64
				for r := range want {
					d := got[r] - want[r]
					num += d * d
					den += want[r] * want[r]
				}
				if rel := math.Sqrt(num / (den + 1e-12)); rel > 0.05 {
					t.Fatalf("frame %d: relative logit error %.4f > 5%%", i, rel)
				}
			}
		})
	}
}

// TestInt8Deterministic pins that two independent int8 compiles of the
// same network produce bit-identical outputs — quantization has no
// hidden state, so byte-stable decode artifacts survive the backend.
func TestInt8Deterministic(t *testing.T) {
	net := prunedNet(t, 0.7)
	frames := testFrames(testTopology(), 8)
	a := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendInt8}).NewExec()
	b := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendInt8}).NewExec()
	for i, f := range frames {
		x := append([]float64(nil), a.Logits(f)...)
		if !bitsEqual(x, b.Logits(f)) {
			t.Fatalf("frame %d: two int8 compiles disagree", i)
		}
	}
}

// TestInt8PlanSharedConcurrent is the ownership-contract race test for
// the integer kernels, whose per-Exec quantization scratch is the one
// piece of mutable state the float kernels don't have: one shared int8
// plan, many Execs, bit-identical to the serial reference (run under
// -race by ci.sh).
func TestInt8PlanSharedConcurrent(t *testing.T) {
	topo := testTopology()
	frames := testFrames(topo, 32)
	net := prunedNet(t, 0.9)
	plan := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendInt8})

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
			batched := make([][]float64, 4)
			for i := range batched {
				batched[i] = make([]float64, net.OutDim())
			}
			for pass := 0; pass < 3; pass++ {
				for i := (w + pass) % len(frames); i < len(frames); i++ {
					ex.LogPosteriors(got, frames[i])
					if !bitsEqual(want[i], got) {
						errs[w] = fmt.Errorf("worker %d frame %d: concurrent int8 exec differs", w, i)
						return
					}
				}
				ex.LogPosteriorsBatch(batched, frames[:4])
				for i := range batched {
					if !bitsEqual(want[i], batched[i]) {
						errs[w] = fmt.Errorf("worker %d: concurrent batched int8 differs at %d", w, i)
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
