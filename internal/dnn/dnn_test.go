package dnn

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mat"
)

func testTopology() Topology {
	return Topology{FeatDim: 6, Context: 1, Hidden: 20, PoolGroup: 4, HiddenBlocks: 2, Senones: 9}
}

func TestTopologyValidate(t *testing.T) {
	good := testTopology()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	bad := good
	bad.Hidden = 21 // not divisible by PoolGroup 4
	if bad.Validate() == nil {
		t.Fatalf("indivisible hidden accepted")
	}
	bad = good
	bad.HiddenBlocks = 0
	if bad.Validate() == nil {
		t.Fatalf("zero blocks accepted")
	}
	bad = good
	bad.Senones = 0
	if bad.Validate() == nil {
		t.Fatalf("zero senones accepted")
	}
}

func TestBuildShapes(t *testing.T) {
	topo := testTopology()
	net := topo.Build(mat.NewRNG(1))
	if net.InDim() != topo.InputDim() {
		t.Fatalf("InDim = %d, want %d", net.InDim(), topo.InputDim())
	}
	if net.OutDim() != topo.Senones {
		t.Fatalf("OutDim = %d, want %d", net.OutDim(), topo.Senones)
	}
	fcs := net.FCs()
	if len(fcs) != topo.HiddenBlocks+2 { // FC0 + hidden blocks + output
		t.Fatalf("expected %d FC layers, got %d", topo.HiddenBlocks+2, len(fcs))
	}
	if fcs[0].Trainable {
		t.Fatalf("FC0 must be frozen (LDA)")
	}
	for _, fc := range fcs[1:] {
		if !fc.Trainable {
			t.Fatalf("layer %s should be trainable", fc.LayerName)
		}
	}
}

func TestPaperTopology(t *testing.T) {
	topo := PaperTopology()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.InputDim() != 360 {
		t.Fatalf("paper input dim = %d, want 360", topo.InputDim())
	}
	if topo.PooledDim() != 400 {
		t.Fatalf("paper pooled dim = %d, want 400", topo.PooledDim())
	}
	// Table I: 129k + 720k + 800k*2 + 800k + 1.4M ≈ 4.65M weights.
	// Building the full network just to count weights is cheap.
	net := topo.Build(mat.NewRNG(1))
	total := net.WeightCount()
	if total < 4_400_000 || total > 4_900_000 {
		t.Fatalf("paper model weight count = %d, expected ~4.65M", total)
	}
}

func TestPosteriorsSumToOne(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(2))
	rng := mat.NewRNG(3)
	in := make([]float64, net.InDim())
	rng.FillNorm(in, 0, 1)
	post := make([]float64, net.OutDim())
	conf := Compile(net, PlanConfig{}).NewExec().Posteriors(post, in)
	var sum float64
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posteriors sum to %v", sum)
	}
	if conf != post[mat.ArgMax(post)] {
		t.Fatalf("confidence != max posterior")
	}
}

// numericalGradCheck verifies analytic backprop against finite
// differences through the full stack (FC + pnorm + renorm + softmax).
func TestBackpropGradientCheck(t *testing.T) {
	topo := Topology{FeatDim: 4, Context: 0, Hidden: 8, PoolGroup: 2, HiddenBlocks: 1, Senones: 5}
	net := topo.Build(mat.NewRNG(4))
	tr := NewTrainer(net)
	rng := mat.NewRNG(5)
	in := make([]float64, net.InDim())
	rng.FillNorm(in, 0, 1)
	sample := Sample{Input: in, Label: 2}

	loss := func() float64 {
		logits := Compile(net, PlanConfig{Backend: BackendDense}).NewExec().Logits(sample.Input)
		post := make([]float64, len(logits))
		mat.Softmax(post, logits)
		return -math.Log(post[sample.Label])
	}

	// accumulate analytic gradients once
	tr.step(sample)

	const eps = 1e-6
	for _, fc := range net.FCs() {
		if !fc.Trainable {
			continue
		}
		if fc.dW == nil {
			t.Fatalf("layer %s has no gradients", fc.LayerName)
		}
		// spot-check a few weights per layer; loss compiles a fresh
		// plan each call, since a plan scores a snapshot taken at
		// compile time
		idxs := []int{0, len(fc.W.Data) / 2, len(fc.W.Data) - 1}
		for _, i := range idxs {
			orig := fc.W.Data[i]
			fc.W.Data[i] = orig + eps
			up := loss()
			fc.W.Data[i] = orig - eps
			down := loss()
			fc.W.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			analytic := fc.dW[i]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %s weight %d: analytic %v vs numeric %v",
					fc.LayerName, i, analytic, numeric)
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	topo := testTopology()
	net := topo.Build(mat.NewRNG(6))
	rng := mat.NewRNG(7)
	// learnable synthetic task: label determined by a random projection
	proj := make([]float64, net.InDim())
	rng.FillNorm(proj, 0, 1)
	var samples []Sample
	for i := 0; i < 200; i++ {
		in := make([]float64, net.InDim())
		rng.FillNorm(in, 0, 1)
		label := int(math.Abs(mat.Dot(proj, in))) % topo.Senones
		samples = append(samples, Sample{Input: in, Label: label})
	}
	tr := NewTrainer(net)
	var first, last float64
	cfg := TrainConfig{Epochs: 5, BatchSize: 8, LearningRate: 0.05, LRDecay: 0.9, Seed: 1,
		Progress: func(e int, l float64) {
			if e == 0 {
				first = l
			}
			last = l
		}}
	tr.Train(samples, cfg)
	if last >= first {
		t.Fatalf("training did not reduce loss: %v -> %v", first, last)
	}
}

func TestMaskedTrainingKeepsWeightsDead(t *testing.T) {
	topo := testTopology()
	net := topo.Build(mat.NewRNG(8))
	fc := net.FCs()[1]
	fc.Mask = make([]bool, len(fc.W.Data))
	for i := range fc.Mask {
		fc.Mask[i] = i%2 == 0 // kill every odd weight
	}
	fc.ApplyMask()
	rng := mat.NewRNG(9)
	var samples []Sample
	for i := 0; i < 50; i++ {
		in := make([]float64, net.InDim())
		rng.FillNorm(in, 0, 1)
		samples = append(samples, Sample{Input: in, Label: rng.Intn(topo.Senones)})
	}
	NewTrainer(net).Train(samples, TrainConfig{Epochs: 2, BatchSize: 8, LearningRate: 0.05, Seed: 2})
	for i, keep := range fc.Mask {
		if !keep && fc.W.Data[i] != 0 {
			t.Fatalf("masked weight %d resurrected: %v", i, fc.W.Data[i])
		}
	}
}

func TestEvaluate(t *testing.T) {
	topo := testTopology()
	net := topo.Build(mat.NewRNG(10))
	rng := mat.NewRNG(11)
	var samples []Sample
	for i := 0; i < 30; i++ {
		in := make([]float64, net.InDim())
		rng.FillNorm(in, 0, 1)
		samples = append(samples, Sample{Input: in, Label: rng.Intn(topo.Senones)})
	}
	t1, t5, conf := Evaluate(net, samples)
	if t1 < 0 || t1 > 1 || t5 < t1 || t5 > 1 {
		t.Fatalf("accuracy out of range: top1 %v top5 %v", t1, t5)
	}
	if conf <= 0 || conf > 1 {
		t.Fatalf("confidence out of range: %v", conf)
	}
	if a, b, c := Evaluate(net, nil); a != 0 || b != 0 || c != 0 {
		t.Fatalf("empty eval should give zeros")
	}
}

func TestCloneIndependence(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(12))
	clone := net.Clone()
	fc := net.FCs()[1]
	orig := fc.W.Data[0]
	fc.W.Data[0] = orig + 100
	if clone.FCs()[1].W.Data[0] != orig {
		t.Fatalf("clone shares weights")
	}
	// clone of a masked network keeps the mask
	fc.Mask = make([]bool, len(fc.W.Data))
	c2 := net.Clone()
	if c2.FCs()[1].Mask == nil {
		t.Fatalf("mask not cloned")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(13))
	// add a mask to exercise that path
	fc := net.FCs()[1]
	fc.Mask = make([]bool, len(fc.W.Data))
	for i := range fc.Mask {
		fc.Mask[i] = i%3 != 0
	}
	fc.ApplyMask()

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := mat.NewRNG(14)
	in := make([]float64, net.InDim())
	rng.FillNorm(in, 0, 1)
	a := Compile(net, PlanConfig{}).NewExec().Logits(in)
	b := Compile(loaded, PlanConfig{}).NewExec().Logits(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded network disagrees at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if loaded.FCs()[0].Trainable {
		t.Fatalf("trainability not preserved")
	}
	if loaded.FCs()[1].Mask == nil {
		t.Fatalf("mask not preserved")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatalf("garbage accepted")
	}
}

func TestGlobalPruningMetric(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(15))
	if net.GlobalPruning() != 0 {
		t.Fatalf("fresh network should report 0 pruning")
	}
	for _, fc := range net.FCs() {
		if !fc.Trainable {
			continue
		}
		fc.Mask = make([]bool, len(fc.W.Data))
		for i := range fc.Mask {
			fc.Mask[i] = i%4 != 0 // prune 25%
		}
		fc.ApplyMask()
	}
	if p := net.GlobalPruning(); math.Abs(p-0.25) > 0.01 {
		t.Fatalf("GlobalPruning = %v, want ~0.25", p)
	}
}
