package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
)

func buildNet(seed int64) *dnn.Network {
	topo := dnn.Topology{FeatDim: 6, Context: 1, Hidden: 24, PoolGroup: 4, HiddenBlocks: 2, Senones: 9}
	return topo.Build(mat.NewRNG(seed))
}

func TestQuantizeCodebookSize(t *testing.T) {
	net := buildNet(1)
	q, rep, err := Quantize(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range rep.Layers {
		if len(lr.Codebook) > 16 {
			t.Fatalf("layer %s codebook %d > 2^4", lr.Name, len(lr.Codebook))
		}
		if lr.MSE < 0 {
			t.Fatalf("negative MSE")
		}
	}
	// every trainable weight must now be a codebook value
	for li, fc := range q.FCs() {
		if !fc.Trainable {
			continue
		}
		var codebook []float64
		for _, lr := range rep.Layers {
			if lr.Name == fc.LayerName {
				codebook = lr.Codebook
			}
		}
		for _, w := range fc.W.Data {
			if w == 0 {
				continue
			}
			found := false
			for _, c := range codebook {
				if w == c {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("layer %d weight %v not in codebook", li, w)
			}
		}
	}
	// original must be untouched
	if net.FCs()[1].W.Data[0] == q.FCs()[1].W.Data[0] &&
		net.FCs()[1].W.Data[1] == q.FCs()[1].W.Data[1] &&
		net.FCs()[1].W.Data[2] == q.FCs()[1].W.Data[2] {
		// extremely unlikely all three survive 4-bit quantization intact
		t.Logf("warning: first three weights unchanged (possible but unlikely)")
	}
}

func TestQuantizePreservesPruning(t *testing.T) {
	net := buildNet(2)
	quality, _ := pruning.CalibrateQuality(net, 0.8)
	pruning.Prune(net, quality)
	q, _, err := Quantize(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range q.FCs() {
		if fc.Mask == nil {
			continue
		}
		for i, keep := range fc.Mask {
			if !keep && fc.W.Data[i] != 0 {
				t.Fatalf("quantization resurrected pruned weight")
			}
		}
	}
}

func TestMoreBitsLessError(t *testing.T) {
	net := buildNet(3)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{2, 4, 6, 8} {
		_, rep, err := Quantize(net, bits)
		if err != nil {
			t.Fatal(err)
		}
		var mse float64
		for _, lr := range rep.Layers {
			mse += lr.MSE
		}
		if mse > prev+1e-12 {
			t.Fatalf("MSE not decreasing with bits: %v after %v", mse, prev)
		}
		prev = mse
	}
}

func TestQuantizeAccuracySurvives8Bit(t *testing.T) {
	net := buildNet(4)
	rng := mat.NewRNG(5)
	var samples []dnn.Sample
	for i := 0; i < 50; i++ {
		in := make([]float64, net.InDim())
		rng.FillNorm(in, 0, 1)
		samples = append(samples, dnn.Sample{Input: in, Label: rng.Intn(net.OutDim())})
	}
	// at 8 bits the argmax should rarely change: compare predictions
	q, _, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	netEx := dnn.Compile(net, dnn.PlanConfig{}).NewExec()
	qEx := dnn.Compile(q, dnn.PlanConfig{}).NewExec()
	agree := 0
	for _, s := range samples {
		if mat.ArgMax(netEx.Logits(s.Input)) == mat.ArgMax(qEx.Logits(s.Input)) {
			agree++
		}
	}
	if agree < len(samples)*9/10 {
		t.Fatalf("8-bit quantization changed %d/%d predictions", len(samples)-agree, len(samples))
	}
}

func TestQuantizeRejectsBadBits(t *testing.T) {
	net := buildNet(6)
	for _, bits := range []int{0, -1, 17} {
		if _, _, err := Quantize(net, bits); err == nil {
			t.Fatalf("bits=%d accepted", bits)
		}
	}
}

func TestHuffmanBits(t *testing.T) {
	if HuffmanBits(nil) != 0 {
		t.Fatalf("empty stream should be 0 bits")
	}
	if HuffmanBits([]int64{0, 5, 0}) != 5 {
		t.Fatalf("single symbol should cost 1 bit/use")
	}
	// two equal symbols: 1 bit each
	if got := HuffmanBits([]int64{10, 10}); got != 20 {
		t.Fatalf("two symbols = %d bits, want 20", got)
	}
	// classic example: frequencies 1,1,2,4 -> lengths 3,3,2,1 = 3+3+4+4 = 14
	if got := HuffmanBits([]int64{1, 1, 2, 4}); got != 14 {
		t.Fatalf("got %d, want 14", got)
	}
}

func TestHuffmanNeverBeatsEntropyNorExceedsFixed(t *testing.T) {
	f := func(raw []uint16) bool {
		var counts []int64
		var total int64
		for _, v := range raw {
			c := int64(v % 1000)
			counts = append(counts, c)
			total += c
		}
		if total == 0 {
			return true
		}
		bits := HuffmanBits(counts)
		// entropy lower bound
		var entropy float64
		n := 0
		for _, c := range counts {
			if c == 0 {
				continue
			}
			n++
			p := float64(c) / float64(total)
			entropy -= p * math.Log2(p) * float64(c)
		}
		if n == 1 {
			return bits == total
		}
		// fixed-width upper bound: ceil(log2(n)) bits per symbol... a
		// Huffman code can exceed log2(n) for skewed tails per symbol,
		// but never the degenerate unary bound; check entropy side only
		// plus the "at least 1 bit per symbol" floor.
		return float64(bits) >= entropy-1e-6 && bits >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanBeatsFixedOnSkewedData(t *testing.T) {
	counts := []int64{1000, 10, 5, 3, 2, 1, 1, 1} // 8 symbols, heavily skewed
	var total int64
	for _, c := range counts {
		total += c
	}
	fixed := total * 3 // 3 bits for 8 symbols
	if got := HuffmanBits(counts); got >= fixed {
		t.Fatalf("Huffman %d should beat fixed %d on skewed data", got, fixed)
	}
}

// retrainedNet builds a prune-then-retrained network — the state the
// Deep Compression pipeline quantizes — with frozen FC0 intact.
func retrainedNet(t *testing.T, target float64) *dnn.Network {
	t.Helper()
	net := buildNet(11)
	rng := mat.NewRNG(12)
	samples := make([]dnn.Sample, 48)
	for i := range samples {
		in := make([]float64, net.InDim())
		rng.FillNorm(in, 0, 1)
		samples[i] = dnn.Sample{Input: in, Label: i % net.OutDim()}
	}
	res, err := pruning.PruneAndRetrain(net, samples, pruning.Config{
		Target:  target,
		Retrain: dnn.TrainConfig{Epochs: 1, BatchSize: 8, LearningRate: 0.02, Seed: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Net
}

// TestQuantizeDeterministic pins the codebook pass: same network +
// bits ⇒ bit-identical codebooks and reports across runs (kmeans1D is
// deterministically initialized by linear spread, so there is no
// hidden seed to drift).
func TestQuantizeDeterministic(t *testing.T) {
	net := retrainedNet(t, 0.8)
	q1, r1, err := Quantize(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	q2, r2, err := Quantize(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Layers) != len(r2.Layers) ||
		r1.TotalHuffmanBits != r2.TotalHuffmanBits || r1.TotalFixedBits != r2.TotalFixedBits {
		t.Fatal("quantize reports differ in shape/totals across runs")
	}
	for i := range r1.Layers {
		l1, l2 := r1.Layers[i], r2.Layers[i]
		if l1.Name != l2.Name || l1.ActiveCount != l2.ActiveCount ||
			math.Float64bits(l1.MSE) != math.Float64bits(l2.MSE) ||
			l1.HuffmanBits != l2.HuffmanBits || len(l1.Codebook) != len(l2.Codebook) {
			t.Fatalf("layer %s report differs across runs", l1.Name)
		}
		for c := range l1.Codebook {
			if math.Float64bits(l1.Codebook[c]) != math.Float64bits(l2.Codebook[c]) {
				t.Fatalf("layer %s codebook entry %d differs across runs", l1.Name, c)
			}
		}
	}
	f1, f2 := q1.FCs(), q2.FCs()
	for li := range f1 {
		for i := range f1[li].W.Data {
			if math.Float64bits(f1[li].W.Data[i]) != math.Float64bits(f2[li].W.Data[i]) {
				t.Fatalf("layer %d weight %d differs across runs", li, i)
			}
		}
	}
}

// TestQuantizeLeavesFrozenAndPrunedUntouched: on a prune-retrained
// net, Quantize must leave frozen layers bit-identical and every
// masked-out weight at exactly zero, so codebook quantization never
// changes a layer's sparsity pattern or the CSR/BSR views compiled
// from it.
func TestQuantizeLeavesFrozenAndPrunedUntouched(t *testing.T) {
	net := retrainedNet(t, 0.8)
	q, _, err := Quantize(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	var checkedFrozen, checkedPruned bool
	orig, quant := net.FCs(), q.FCs()
	for li := range orig {
		of, qf := orig[li], quant[li]
		if !of.Trainable {
			checkedFrozen = true
			for i := range of.W.Data {
				if math.Float64bits(of.W.Data[i]) != math.Float64bits(qf.W.Data[i]) {
					t.Fatalf("frozen layer %s weight %d changed", of.LayerName, i)
				}
			}
			continue
		}
		if qf.Mask == nil {
			continue
		}
		for i, keep := range qf.Mask {
			if !keep {
				checkedPruned = true
				if qf.W.Data[i] != 0 {
					t.Fatalf("layer %s: pruned weight %d resurrected to %v", qf.LayerName, i, qf.W.Data[i])
				}
			}
		}
	}
	if !checkedFrozen || !checkedPruned {
		t.Fatalf("test vacuous: frozen=%v pruned=%v", checkedFrozen, checkedPruned)
	}
}
