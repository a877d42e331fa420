package asr

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/decoder"
	"repro/internal/mat"
	"repro/internal/qkern"
	"repro/internal/wer"
)

// int8ScoresFor computes the test set's log-posteriors through the
// int8 forward pass (qkern.Compile) of the model at the given level.
func int8ScoresFor(sys *System, level int) [][][]float64 {
	qn := qkern.Compile(sys.Models[level])
	all := make([][][]float64, len(sys.TestSet))
	for i, u := range sys.TestSet {
		spliced := speechSpliceAll(u, sys.Scale.Context)
		scores := make([][]float64, len(spliced))
		for f, in := range spliced {
			vec := make([]float64, sys.World.NumSenones())
			qn.LogPosteriors(vec, in)
			scores[f] = vec
		}
		all[i] = scores
	}
	return all
}

// top1Agreement reports the fraction of frames on which two score sets
// pick the same top-1 senone.
func top1Agreement(a, b [][][]float64) float64 {
	var frames, agree int
	for i := range a {
		for f := range a[i] {
			frames++
			if mat.ArgMax(a[i][f]) == mat.ArgMax(b[i][f]) {
				agree++
			}
		}
	}
	if frames == 0 {
		return 0
	}
	return float64(agree) / float64(frames)
}

// decodeWER decodes the whole test set from precomputed scores and
// returns the corpus WER in percent.
func decodeWER(sys *System, scores [][][]float64) float64 {
	var corpus wer.Corpus
	cfg := decoder.Config{Beam: DefaultBeam, AcousticScale: 1}
	for i, u := range sys.TestSet {
		r := sys.Decoder.Decode(scores[i], cfg)
		corpus.Add(u.Words, r.Words)
	}
	return corpus.Rate()
}

// TestInt8ErrorBudget pins the int8 pass's error budget on the
// deterministic corpus, at the paper's pruning levels: top-1 posterior
// agreement with the system's float scores >= 99% of frames, and
// corpus WER within 0.5 absolute points. The pruned models are
// prune-then-retrained by Build, so 70/90 exercise
// quantize-after-retrain — Deep Compression's pipeline order.
func TestInt8ErrorBudget(t *testing.T) {
	sys := tinySystem(t)
	for _, lv := range []int{0, 70, 90} {
		t.Run(fmt.Sprintf("p%d", lv), func(t *testing.T) {
			flt := sys.Scores(lv)
			q := int8ScoresFor(sys, lv)
			if agr := top1Agreement(flt, q); agr < 0.99 {
				t.Errorf("top-1 posterior agreement %.4f < 0.99", agr)
			}
			fltWER, qWER := decodeWER(sys, flt), decodeWER(sys, q)
			if d := math.Abs(qWER - fltWER); d > 0.5 {
				t.Errorf("WER delta %.2f > 0.5 absolute (float %.2f%%, int8 %.2f%%)", d, fltWER, qWER)
			}
		})
	}
}
