package experiments

import (
	"fmt"

	"repro/internal/asr"
	"repro/internal/speech"
)

// Scenario is one cell of the adaptive-controller evaluation matrix:
// an evaluation world bent along one stress dimension, decoded with a
// model at one pruning level. Zero-valued fields keep the scale's
// defaults, so the zero Scenario is the scale's own test condition.
type Scenario struct {
	Name        string
	Noise       float64 // test-set emission-noise scale (0 = the scale's)
	Vocab       int     // vocabulary size (0 = the scale's)
	WordsPerUtt int     // utterance length in words (0 = the scale's)
	Pruning     int     // model pruning level (0, 70, 80, 90)
}

// Scenarios returns the evaluation matrix for a scale: the baseline
// condition plus one variant per stress dimension — heavier test
// noise, a doubled vocabulary (same senones; see System.Derive), and
// doubled utterance length — each decoded with the unpruned and the
// 90%-pruned model. The noisy 90%-pruned cell is the paper's worst
// case: flattened posteriors on top of genuinely ambiguous frames,
// where the static beam's workload explosion peaks.
func Scenarios(scale asr.Scale) []Scenario {
	noise := scale.TestNoiseScale
	if noise <= 0 {
		noise = 1
	}
	dims := []Scenario{
		{Name: "baseline"},
		{Name: "noisy", Noise: noise * 1.3},
		{Name: "wide-vocab", Vocab: 2 * scale.World.Vocab},
		{Name: "long-utt", WordsPerUtt: 2 * scale.WordsPerUtt},
	}
	var out []Scenario
	for _, lv := range []int{0, 90} {
		for _, d := range dims {
			d.Pruning = lv
			out = append(out, d)
		}
	}
	return out
}

// scenarioSystem derives the System that evaluates one scenario: the
// parent's trained models against the scenario's world and test set.
func scenarioSystem(sys *asr.System, sc Scenario) (*asr.System, error) {
	world := sys.World
	if sc.Vocab > 0 && sc.Vocab != sys.Scale.World.Vocab {
		wcfg := sys.Scale.World
		wcfg.Vocab = sc.Vocab
		w, err := speech.NewWorld(wcfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		world = w
	}
	words := sys.Scale.WordsPerUtt
	if sc.WordsPerUtt > 0 {
		words = sc.WordsPerUtt
	}
	noise := sys.Scale.TestNoiseScale
	if noise <= 0 {
		noise = 1
	}
	if sc.Noise > 0 {
		noise = sc.Noise
	}
	testSet := world.SynthesizeSetNoisy(sys.Scale.TestUtts, words, 2002, noise)
	return sys.Derive(world, testSet), nil
}

// ScenarioRun is one (scenario, policy) evaluation — the static and
// adaptive halves of each matrix cell, kept structured so tests can
// assert the frontier without re-parsing the rendered table.
type ScenarioRun struct {
	Scenario Scenario
	Adaptive bool
	Result   *asr.PipelineResult
}

// RunAdaptiveMatrix evaluates every scenario of the scale's matrix
// twice — under the static default beam and under the scale's default
// adaptive controller — and returns the runs in matrix order (each
// scenario's static run immediately before its adaptive run).
// Utterances within each run fan out over the engine pool, and
// results are bit-reproducible at any width.
func RunAdaptiveMatrix(sys *asr.System) ([]ScenarioRun, error) {
	ctl := sys.Scale.DefaultControl()
	var out []ScenarioRun
	for _, sc := range Scenarios(sys.Scale) {
		ssys, err := scenarioSystem(sys, sc)
		if err != nil {
			return nil, err
		}
		static := ssys.Preset(asr.MitigationNone, sc.Pruning)
		static.Name = fmt.Sprintf("%s-%d-static", sc.Name, sc.Pruning)
		static.RecordFrames = true
		adaptive := static
		adaptive.Name = fmt.Sprintf("%s-%d-adaptive", sc.Name, sc.Pruning)
		cc := ctl
		adaptive.Control = &cc

		for _, cfg := range []asr.PipelineConfig{static, adaptive} {
			res, err := ssys.Run(cfg, sys.Scale.DNNConfig(), sys.Scale.ViterbiConfig())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.Name, err)
			}
			out = append(out, ScenarioRun{Scenario: sc, Adaptive: cfg.Control != nil, Result: res})
		}
	}
	return out, nil
}

// AdaptiveMatrix renders the scenario matrix as the WER / tail-latency
// / modelled-cycles frontier: for every scenario, the static decode
// row and the adaptive decode row side by side. The per-frame p99 is
// modelled (store cycles at the Viterbi accelerator clock), so the
// whole table is bit-reproducible — docs/results-adaptive/ archives
// it per scale.
func AdaptiveMatrix(sys *asr.System) (*Table, error) {
	runs, err := RunAdaptiveMatrix(sys)
	if err != nil {
		return nil, err
	}
	hz := sys.Scale.ViterbiConfig().FrequencyHz
	t := &Table{
		ID:     "adaptive",
		Title:  "Adaptive beam controller vs static beam across the scenario matrix",
		Header: []string{"scenario", "pruning", "policy", "WER", "peak occ", "mean active", "p99 frame us", "search ms", "mean beam", "slo frames"},
	}
	var staticPeak int // the matching static row's peak, for the note
	for _, r := range runs {
		res := r.Result
		policy, beam := "static", f2(asr.DefaultBeam)
		if r.Adaptive {
			policy, beam = "adaptive", f2(res.Control.MeanBeam())
		} else {
			staticPeak = res.PeakActive
		}
		t.Rows = append(t.Rows, []string{
			r.Scenario.Name, fmt.Sprintf("%d%%", r.Scenario.Pruning), policy,
			pct(res.WER),
			fmt.Sprint(res.PeakActive),
			f2(res.MeanActive),
			f2(res.FrameTailSeconds(0.99, hz) * 1e6),
			f2(res.ViterbiSeconds * 1e3),
			beam,
			fmt.Sprint(res.Control.SLOViolations),
		})
		if r.Adaptive && r.Scenario.Name == "noisy" && r.Scenario.Pruning == 90 && staticPeak > 0 {
			drop := 100 * (1 - float64(res.PeakActive)/float64(staticPeak))
			t.Notes = append(t.Notes, fmt.Sprintf(
				"noisy-90: adaptive peak occupancy %d vs static %d (%.0f%% lower) at the WERs above",
				res.PeakActive, staticPeak, drop))
		}
	}
	t.Notes = append(t.Notes,
		"p99 frame latency is modelled: per-frame store cycles at the Viterbi accelerator clock",
		"adaptive rows run the scale's DefaultControl (docs/ADAPTIVE.md); static rows the default beam 15")
	return t, nil
}
