package asr

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/speech"
)

func speechSpliceAll(u *speech.Utterance, context int) [][]float64 {
	return speech.SpliceAll(u.Frames, context)
}

// one tiny system shared by all tests in this package: Build trains a
// network, which is the expensive step.
var (
	tinyOnce sync.Once
	tinySys  *System
	tinyErr  error
)

func tinySystem(t *testing.T) *System {
	t.Helper()
	tinyOnce.Do(func() {
		tinySys, tinyErr = Build(ScaleTiny(), nil)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinySys
}

func TestBuildProducesAllModels(t *testing.T) {
	sys := tinySystem(t)
	levels := sys.Levels()
	want := []int{0, 70, 80, 90}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v", levels)
	}
	for i, lv := range want {
		if levels[i] != lv {
			t.Fatalf("levels = %v", levels)
		}
	}
	for _, lv := range want[1:] {
		rep := sys.PruneReports[lv]
		if math.Abs(rep.GlobalPruning-float64(lv)/100) > 0.03 {
			t.Fatalf("level %d: global pruning %v", lv, rep.GlobalPruning)
		}
	}
	if sys.Graph.NumStates() == 0 || sys.Decoder == nil {
		t.Fatalf("graph/decoder missing")
	}
	if len(sys.TestSet) != sys.Scale.TestUtts {
		t.Fatalf("test set size %d", len(sys.TestSet))
	}
}

func TestConfidenceDropsWithPruning(t *testing.T) {
	// the paper's central observation must hold at every scale
	sys := tinySystem(t)
	_, _, base := sys.Quality(0)
	_, _, p90 := sys.Quality(90)
	if p90 >= base {
		t.Fatalf("90%% pruning should reduce confidence: %v vs %v", p90, base)
	}
}

func TestScoresCachedAndShaped(t *testing.T) {
	sys := tinySystem(t)
	a := sys.Scores(0)
	b := sys.Scores(0)
	if &a[0] != &b[0] {
		t.Fatalf("scores not cached")
	}
	if len(a) != len(sys.TestSet) {
		t.Fatalf("scores per utterance: %d", len(a))
	}
	for i, u := range sys.TestSet {
		if len(a[i]) != u.NumFrames() {
			t.Fatalf("utt %d: %d score frames, %d audio frames", i, len(a[i]), u.NumFrames())
		}
		if len(a[i][0]) != sys.World.NumSenones() {
			t.Fatalf("score width %d", len(a[i][0]))
		}
	}
}

func TestPresetNaming(t *testing.T) {
	cases := map[string]PipelineConfig{
		"Baseline-NP": Preset(MitigationNone, 0),
		"Beam-90":     Preset(MitigationBeam, 90),
		"NBest-70":    Preset(MitigationNBest, 70),
	}
	for want, cfg := range cases {
		if cfg.Name != want {
			t.Fatalf("name = %q, want %q", cfg.Name, want)
		}
	}
	if Preset(MitigationBeam, 90).Beam != ReducedBeams[90] {
		t.Fatalf("Beam preset did not reduce the beam")
	}
	if Preset(MitigationNone, 90).Beam != DefaultBeam {
		t.Fatalf("Baseline preset should use the default beam")
	}
	if len(AllPresets()) != 12 {
		t.Fatalf("preset matrix size %d", len(AllPresets()))
	}
}

func TestSystemPresetUsesScaleGeometry(t *testing.T) {
	sys := tinySystem(t)
	cfg := sys.Preset(MitigationNBest, 90)
	if cfg.Sets != sys.Scale.NBestSets || cfg.Ways != sys.Scale.NBestWays {
		t.Fatalf("preset geometry %dx%d, scale %dx%d",
			cfg.Sets, cfg.Ways, sys.Scale.NBestSets, sys.Scale.NBestWays)
	}
	base := sys.Preset(MitigationNone, 0)
	if base.DirectEntries != sys.Scale.DirectEntries {
		t.Fatalf("baseline preset ignores scale direct entries")
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.RunMatrix([]PipelineConfig{sys.Preset(MitigationNone, 0)})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Frames == 0 || r.Explored == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.DNNSeconds <= 0 || r.ViterbiSeconds <= 0 {
		t.Fatalf("non-positive times")
	}
	if r.TotalSeconds() != r.DNNSeconds+r.ViterbiSeconds {
		t.Fatalf("TotalSeconds mismatch")
	}
	if r.TotalEnergyJ() <= 0 {
		t.Fatalf("non-positive energy")
	}
	if len(r.UttSeconds) != len(sys.TestSet) {
		t.Fatalf("per-utterance times: %d", len(r.UttSeconds))
	}
	if r.TailSeconds(1) < r.TailSeconds(0.5) {
		t.Fatalf("tail quantiles not monotone")
	}
	if r.WER < 0 || r.WER > 100 {
		t.Fatalf("WER = %v", r.WER)
	}
}

func TestRunRejectsUnknownLevel(t *testing.T) {
	sys := tinySystem(t)
	cfg := sys.Preset(MitigationNone, 0)
	cfg.Pruning = 55
	if _, err := sys.RunMatrix([]PipelineConfig{cfg}); err == nil {
		t.Fatalf("unknown pruning level accepted")
	}
}

func TestWorkloadGrowsWithPruning(t *testing.T) {
	// Figure 4's monotone trend, asserted end to end
	sys := tinySystem(t)
	res, err := sys.RunMatrix([]PipelineConfig{
		sys.Preset(MitigationNone, 0),
		sys.Preset(MitigationNone, 90),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].ExploredPerFrame <= res[0].ExploredPerFrame {
		t.Fatalf("90%% pruning should increase Viterbi workload: %v vs %v",
			res[1].ExploredPerFrame, res[0].ExploredPerFrame)
	}
}

func TestNBestBoundsWorkload(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.RunMatrix([]PipelineConfig{
		sys.Preset(MitigationNone, 90),
		sys.Preset(MitigationNBest, 90),
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline, nbest := res[0], res[1]
	if nbest.ViterbiSeconds >= baseline.ViterbiSeconds {
		t.Fatalf("N-best table should cut Viterbi time at 90%%: %v vs %v",
			nbest.ViterbiSeconds, baseline.ViterbiSeconds)
	}
	if nbest.Overflows != 0 {
		t.Fatalf("N-best design has no overflow buffer, recorded %d", nbest.Overflows)
	}
}

func TestScaleAccessors(t *testing.T) {
	s := ScaleSmall()
	if s.NBestN() != s.NBestSets*s.NBestWays {
		t.Fatalf("NBestN broken")
	}
	if s.DNNConfig().Lanes() <= 0 {
		t.Fatalf("DNN config broken")
	}
	if s.ViterbiConfig().FrequencyHz <= 0 {
		t.Fatalf("Viterbi config broken")
	}
	if err := s.Topology().Validate(); err != nil {
		t.Fatalf("small topology invalid: %v", err)
	}
	if err := ScalePaper().Topology().Validate(); err != nil {
		t.Fatalf("paper topology invalid: %v", err)
	}
	if err := ScaleTiny().Topology().Validate(); err != nil {
		t.Fatalf("tiny topology invalid: %v", err)
	}
}

func TestScoresParallelMatchesSerial(t *testing.T) {
	// Scores fans utterances across goroutines sharing one auto plan;
	// the result must equal a serial computation on a dense plan.
	sys := tinySystem(t)
	ref := dnn.Compile(sys.Models[90], dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
	got := sys.Scores(90)
	for i, u := range sys.TestSet[:3] {
		spliced := speechSpliceAll(u, sys.Scale.Context)
		for f, in := range spliced {
			want := make([]float64, sys.World.NumSenones())
			ref.LogPosteriors(want, in)
			for s := range want {
				if got[i][f][s] != want[s] {
					t.Fatalf("utt %d frame %d senone %d: %v != %v",
						i, f, s, got[i][f][s], want[s])
				}
			}
		}
	}
}
