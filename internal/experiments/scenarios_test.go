package experiments

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/asr"
)

// TestScenarioMatrixShape pins the matrix layout: four stress
// dimensions at two pruning levels, and the generator emits one static
// and one adaptive row per cell.
func TestScenarioMatrixShape(t *testing.T) {
	sys := tinySys(t)
	scs := Scenarios(sys.Scale)
	if len(scs) != 8 {
		t.Fatalf("scenarios = %d, want 8", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		seen[sc.Name] = true
	}
	for _, name := range []string{"baseline", "noisy", "wide-vocab", "long-utt"} {
		if !seen[name] {
			t.Fatalf("missing scenario %q", name)
		}
	}

	tab, err := AdaptiveMatrix(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*len(scs) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 2*len(scs))
	}
	var noted bool
	for _, n := range tab.Notes {
		if strings.HasPrefix(n, "noisy-90:") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("missing the noisy-90 occupancy note: %v", tab.Notes)
	}
}

// TestAdaptiveMatrixReproducible pins the adaptive determinism
// contract of docs/ADAPTIVE.md across whole builds: the scenario
// matrix rendered from the cached tiny System and from a second
// System trained from scratch by asr.Build, not through the SystemFor
// cache, must be byte-identical and must hold the paper's worst case,
// the noisy 90%-pruned rows. The second build is what pins that
// training is deterministic; docs/results-adaptive/ archives this
// table.
func TestAdaptiveMatrixReproducible(t *testing.T) {
	fresh, err := asr.Build(asr.ScaleTiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	render := func(sys *asr.System) string {
		tab, err := AdaptiveMatrix(sys)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	cached := render(tinySys(t))
	if got := render(fresh); got != cached {
		t.Fatalf("the scenario matrix differs between two builds:\n--- cached\n%s--- fresh\n%s", cached, got)
	}
	if !regexp.MustCompile(`(?m)^noisy +90% `).MatchString(cached) {
		t.Fatalf("the scenario matrix has no noisy 90%% rows:\n%s", cached)
	}
}

// TestAdaptiveMatrixAcceptance pins the PR's acceptance criterion on
// the paper's worst case: with the 90%-pruned model in the noisy
// scenario, the scale's default controller cuts peak live-token
// occupancy by at least 30% versus the static default beam at
// equal-or-better WER. The other cells get the weaker guarantee that
// adaptation never *raises* peak occupancy.
func TestAdaptiveMatrixAcceptance(t *testing.T) {
	sys := tinySys(t)
	runs, err := RunAdaptiveMatrix(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs)%2 != 0 {
		t.Fatalf("odd run count %d", len(runs))
	}
	for i := 0; i < len(runs); i += 2 {
		st, ad := runs[i], runs[i+1]
		if st.Adaptive || !ad.Adaptive || st.Scenario != ad.Scenario {
			t.Fatalf("runs %d,%d not a static/adaptive pair of one scenario", i, i+1)
		}
		sc := st.Scenario
		if ad.Result.PeakActive > st.Result.PeakActive {
			t.Errorf("%s-%d: adaptive peak %d > static %d",
				sc.Name, sc.Pruning, ad.Result.PeakActive, st.Result.PeakActive)
		}
		if ad.Result.Control.Frames != ad.Result.Frames {
			t.Errorf("%s-%d: controller decided %d of %d frames",
				sc.Name, sc.Pruning, ad.Result.Control.Frames, ad.Result.Frames)
		}
		if sc.Name != "noisy" || sc.Pruning != 90 {
			continue
		}
		if ad.Result.WER > st.Result.WER {
			t.Errorf("noisy-90: adaptive WER %.2f worse than static %.2f",
				ad.Result.WER, st.Result.WER)
		}
		drop := 1 - float64(ad.Result.PeakActive)/float64(st.Result.PeakActive)
		if drop < 0.30 {
			t.Errorf("noisy-90: peak occupancy drop %.0f%% (adaptive %d vs static %d), want >= 30%%",
				100*drop, ad.Result.PeakActive, st.Result.PeakActive)
		}
		if ad.Result.Control.Tightens == 0 {
			t.Errorf("noisy-90: controller never tightened")
		}
	}
}
