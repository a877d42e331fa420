package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/asr"
	"repro/internal/dnn"
	"repro/internal/mat"
)

// representativeFrame returns the test sample on which the baseline
// model is most confident — the paper's Figure 1 is such a
// "admittedly well selected example".
func representativeFrame(sys *asr.System) dnn.Sample {
	baseline := dnn.Compile(sys.Models[0], dnn.PlanConfig{}).NewExec()
	post := make([]float64, sys.World.NumSenones())
	bestConf, bestIdx := -1.0, 0
	for i, s := range sys.TestSamples {
		if conf := baseline.Posteriors(post, s.Input); conf > bestConf {
			bestConf, bestIdx = conf, i
		}
	}
	return sys.TestSamples[bestIdx]
}

// Fig1 reproduces Figure 1: the distribution of DNN scores for one
// representative frame under the baseline and pruned models.
func Fig1(sys *asr.System) (*Table, error) {
	frame := representativeFrame(sys)
	post := make([]float64, sys.World.NumSenones())

	t := &Table{
		ID:     "fig1",
		Title:  "Score distribution for one frame, baseline vs pruned models",
		Header: []string{"model", "top1 class", "confidence", "top2", "top3", "top5 mass", "entropy(bits)"},
	}
	top1Classes := map[int]bool{}
	for _, lv := range sys.Levels() {
		ex := dnn.Compile(sys.Models[lv], dnn.PlanConfig{}).NewExec()
		conf := ex.Posteriors(post, frame.Input)
		sorted := append([]float64(nil), post...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		var top5 float64
		for i := 0; i < 5 && i < len(sorted); i++ {
			top5 += sorted[i]
		}
		var entropy float64
		for _, p := range post {
			if p > 0 {
				entropy -= p * math.Log2(p)
			}
		}
		cls := mat.ArgMax(post)
		top1Classes[cls] = true
		t.Rows = append(t.Rows, []string{
			levelName(lv), fmt.Sprint(cls), f3(conf), f3(sorted[1]), f3(sorted[2]), f3(top5), f2(entropy),
		})
	}
	if len(top1Classes) == 1 {
		t.Notes = append(t.Notes, "top-1 class identical across all models (as in the paper)")
	} else {
		t.Notes = append(t.Notes, "top-1 class differs across models on this frame")
	}
	t.Notes = append(t.Notes, "paper: baseline confidence 0.92; pruned <0.5, down to 0.17 at 90%")
	return t, nil
}

// Fig3 reproduces Figure 3: average DNN confidence per pruning level
// over the whole test set, alongside the top-1/top-5 accuracies that
// Section II-B reports staying nearly flat. The trailing columns
// extend the sweep to the int8 forward pass (appended last so the
// confidence column keeps its position for downstream parsers): the
// same model's mean confidence under quantized inference and its top-1
// agreement with the float scores. The int8 table drills into the
// search-side consequences.
func Fig3(sys *asr.System) (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "Average DNN confidence vs pruning",
		Header: []string{"model", "top-1", "top-5", "confidence", "drop vs baseline", "int8 confidence", "int8 agree"},
	}
	_, _, base := sys.Quality(0)
	for _, lv := range sys.Levels() {
		t1, t5, conf := sys.Quality(lv)
		drop := 0.0
		if base > 0 {
			drop = 100 * (base - conf) / base
		}
		q := int8Scores(sys, lv)
		qConf, _ := scoreStats(q)
		t.Rows = append(t.Rows, []string{
			levelName(lv), f3(t1), f3(t5), f3(conf), pct(drop),
			f3(qConf), f3(agreeTop1(sys.Scores(lv), q)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: confidence 0.68 -> 0.65 (5%), 0.62 (9%), 0.53 (22%)",
		"int8 columns: quantized inference barely moves the confidence the pruning sweep collapses")
	return t, nil
}

// Table1 reproduces Table I: the layer inventory with neurons, weights
// and per-layer pruning percentages at each global level.
func Table1(sys *asr.System) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "DNN layers with per-layer pruning at 70/80/90% global",
		Header: []string{"layer", "neurons", "weights", "prune@70%", "prune@80%", "prune@90%"},
	}
	baseline := sys.Models[0]
	perLayer := map[int]map[string]float64{}
	for _, lv := range []int{70, 80, 90} {
		rep, ok := sys.PruneReports[lv]
		if !ok {
			continue
		}
		m := map[string]float64{}
		for _, lr := range rep.Layers {
			m[lr.Name] = lr.Fraction
		}
		perLayer[lv] = m
	}
	for _, l := range baseline.Layers {
		fc, ok := l.(*dnn.FC)
		if !ok {
			t.Rows = append(t.Rows, []string{l.Name(), fmt.Sprint(l.OutDim()), "0", "-", "-", "-"})
			continue
		}
		row := []string{fc.LayerName, fmt.Sprint(fc.OutDim()), fmt.Sprint(fc.WeightCount())}
		for _, lv := range []int{70, 80, 90} {
			switch {
			case !fc.Trainable:
				row = append(row, "0 (fixed)")
			case perLayer[lv] == nil:
				row = append(row, "-")
			default:
				row = append(row, pct(100*perLayer[lv][fc.LayerName]))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{"SoftMax", fmt.Sprint(baseline.OutDim()), "0", "-", "-", "-"})
	t.Notes = append(t.Notes,
		fmt.Sprintf("total weights %d (trainable %d); paper instance: 4.65M total",
			baseline.WeightCount(), baseline.TrainableWeightCount()),
		"FC0 is fixed (LDA stand-in) and never pruned, as in the paper")
	return t, nil
}

// Fig5 reproduces the Figure 5 narrative: for one frame, how many
// senones land within the beam of the best one — the mechanism by
// which flat pruned scores multiply surviving hypotheses.
func Fig5(sys *asr.System) (*Table, error) {
	frame := representativeFrame(sys)
	scores := make([]float64, sys.World.NumSenones())
	t := &Table{
		ID:     "fig5",
		Title:  "Senone costs within the beam for one frame (illustration)",
		Header: []string{"model", "best cost", "2nd-best cost", "within beam 15", "within beam 8"},
	}
	for _, lv := range sys.Levels() {
		dnn.Compile(sys.Models[lv], dnn.PlanConfig{}).NewExec().LogPosteriors(scores, frame.Input)
		costs := make([]float64, len(scores))
		for i, s := range scores {
			costs[i] = -s
		}
		sort.Float64s(costs)
		within := func(beam float64) int {
			n := 0
			for _, c := range costs {
				if c <= costs[0]+beam {
					n++
				}
			}
			return n
		}
		t.Rows = append(t.Rows, []string{
			levelName(lv), f2(costs[0]), f2(costs[1]),
			fmt.Sprint(within(15)), fmt.Sprint(within(8)),
		})
	}
	t.Notes = append(t.Notes,
		"flatter pruned scores put more senones within a fixed beam, multiplying surviving paths")
	return t, nil
}
