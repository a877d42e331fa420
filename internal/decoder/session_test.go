package decoder

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/speech"
	"repro/internal/wfst"
)

// sessionWorld builds the small shared world/graph the session tests
// decode against.
func sessionWorld(t *testing.T) (*speech.World, *wfst.FST) {
	t.Helper()
	cfg := speech.DefaultConfig()
	cfg.NumPhones = 5
	cfg.Vocab = 6
	cfg.FeatDim = 4
	world, err := speech.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return world, wfst.Compile(world)
}

func randomScores(world *speech.World, rng *mat.RNG, frames int) [][]float64 {
	scores := make([][]float64, frames)
	for i := range scores {
		raw := make([]float64, world.NumSenones())
		rng.FillNorm(raw, 0, 2)
		mat.LogSoftmax(raw, raw)
		scores[i] = raw
	}
	return scores
}

func requireSameResult(t *testing.T, want, got Result) {
	t.Helper()
	if want.OK != got.OK || want.Cost != got.Cost {
		t.Fatalf("result mismatch: (%v, %v) vs (%v, %v)", want.OK, want.Cost, got.OK, got.Cost)
	}
	if len(want.Words) != len(got.Words) {
		t.Fatalf("words mismatch: %v vs %v", want.Words, got.Words)
	}
	for i := range want.Words {
		if want.Words[i] != got.Words[i] {
			t.Fatalf("words mismatch: %v vs %v", want.Words, got.Words)
		}
	}
	if want.Stats != got.Stats {
		t.Fatalf("stats mismatch: %+v vs %+v", want.Stats, got.Stats)
	}
}

// TestSessionMatchesDecode pins the tentpole contract: Decode is a
// thin loop over a Session, so driving PushFrame by hand must produce
// a bit-identical Result, store stats included.
func TestSessionMatchesDecode(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(41)

	for trial := 0; trial < 3; trial++ {
		scores := randomScores(world, rng, 10+rng.Intn(6))
		for _, dcfg := range []Config{
			{Beam: 15, AcousticScale: 1},
			{Beam: 0, AcousticScale: 1},
			{Beam: 15, AcousticScale: 1, NewStore: SetAssocStore(8, 4)},
			{Beam: 15, AcousticScale: 1, MaxActive: 16},
		} {
			batch := d.Decode(scores, dcfg)
			s := d.Start(dcfg)
			for _, f := range scores {
				if err := s.PushFrame(f); err != nil {
					t.Fatal(err)
				}
				if s.Active() == 0 {
					break
				}
			}
			requireSameResult(t, batch, s.Finish())
		}
	}
}

// TestConcurrentSessionsShareDecoder exercises the engine contract: a
// Decoder over an eager FST is read-only and many Sessions may decode
// against it at once, each producing the same result as a serial
// decode. Run under -race this doubles as the shared-state audit.
func TestConcurrentSessionsShareDecoder(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(42)

	const utts = 8
	inputs := make([][][]float64, utts)
	want := make([]Result, utts)
	cfg := Config{Beam: 15, AcousticScale: 1}
	for i := range inputs {
		inputs[i] = randomScores(world, rng, 12)
		want[i] = d.Decode(inputs[i], cfg)
	}

	got := make([]Result, utts)
	var wg sync.WaitGroup
	for i := 0; i < utts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = d.Decode(inputs[i], cfg)
		}(i)
	}
	wg.Wait()
	for i := range want {
		requireSameResult(t, want[i], got[i])
	}
}

// TestConcurrentSessionsShareLazyGraph does the same over one shared
// on-the-fly composition: the arc memo is locked internally, and
// results must match the eager graph exactly.
func TestConcurrentSessionsShareLazyGraph(t *testing.T) {
	world, graph := sessionWorld(t)
	eager := New(graph)
	lazy := wfst.NewLazy(world)
	lazyDec := New(lazy)
	rng := mat.NewRNG(43)

	const utts = 8
	inputs := make([][][]float64, utts)
	want := make([]Result, utts)
	cfg := Config{Beam: 15, AcousticScale: 1}
	for i := range inputs {
		inputs[i] = randomScores(world, rng, 12)
		want[i] = eager.Decode(inputs[i], cfg)
	}

	got := make([]Result, utts)
	var wg sync.WaitGroup
	for i := 0; i < utts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = lazyDec.Decode(inputs[i], cfg)
		}(i)
	}
	wg.Wait()
	for i := range want {
		if want[i].OK != got[i].OK || math.Abs(want[i].Cost-got[i].Cost) > 1e-9 {
			t.Fatalf("utt %d: eager (%v, %v) vs lazy (%v, %v)",
				i, want[i].OK, want[i].Cost, got[i].OK, got[i].Cost)
		}
	}
	if lazy.MaterializedStates() == 0 || lazy.MaterializedStates() >= lazy.NumStates() {
		t.Fatalf("lazy memo materialized %d of %d states", lazy.MaterializedStates(), lazy.NumStates())
	}
}

// TestSessionPushAfterFinish pins the session lifecycle errors.
func TestSessionPushAfterFinish(t *testing.T) {
	d := New(toyGraph())
	s := d.Start(DefaultConfig())
	s.Finish()
	if err := s.PushFrame(make([]float64, 4)); !errors.Is(err, ErrFinished) {
		t.Fatalf("PushFrame after Finish: got %v, want ErrFinished", err)
	}
	r1 := s.Finish()
	r2 := s.Finish()
	if r1.OK != r2.OK || r1.Cost != r2.Cost {
		t.Fatalf("Finish not idempotent")
	}
}

// TestSessionNotStarted pins the other side of the lifecycle: a zero
// Session (one that did not come from Decoder.Start) must fail
// descriptively on PushFrame and answer the read-only accessors with
// empty values instead of dereferencing absent search state.
func TestSessionNotStarted(t *testing.T) {
	var s Session
	if err := s.PushFrame(make([]float64, 4)); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("PushFrame before Start: got %v, want ErrNotStarted", err)
	}
	if got := s.Active(); got != 0 {
		t.Fatalf("Active on unstarted session = %d, want 0", got)
	}
	if words, final := s.Partial(); words != nil || final {
		t.Fatalf("Partial on unstarted session = (%v, %v), want (nil, false)", words, final)
	}
	r := s.Finish()
	if r.OK || r.Words != nil || r.Stats.Frames != 0 {
		t.Fatalf("Finish on unstarted session = %+v, want zero Result", r)
	}
	// Finish must not latch the session shut either: the error stays
	// ErrNotStarted, pointing at the real mistake.
	if err := s.PushFrame(make([]float64, 4)); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("PushFrame after zero-session Finish: got %v, want ErrNotStarted", err)
	}
}

// TestSessionPartialAfterFinish pins that Partial on a finished
// session reports no hypothesis rather than resurrecting the beam.
func TestSessionPartialAfterFinish(t *testing.T) {
	d := New(toyGraph())
	s := d.Start(DefaultConfig())
	s.Finish()
	if words, final := s.Partial(); words != nil || final {
		t.Fatalf("Partial after Finish = (%v, %v), want (nil, false)", words, final)
	}
}

// TestSessionPartial pins mid-stream Partial: the hypothesis is
// readable after every frame, and reading it does not perturb the
// final result against a batch Decode over the same frames.
func TestSessionPartial(t *testing.T) {
	d := New(toyGraph())
	s := d.Start(DefaultConfig())
	scores := scoresFor([]int{0, 0, 1, 1}, 4, 8)
	for i, frame := range scores {
		if err := s.PushFrame(frame); err != nil {
			t.Fatal(err)
		}
		words, _ := s.Partial()
		// word 0 is hypothesized from the first frame (olabel on entry)
		if i >= 1 && (len(words) == 0 || words[0] != 0) {
			t.Fatalf("frame %d: partial = %v", i, words)
		}
	}
	res := s.Finish()
	if !res.OK || res.Words[0] != 0 {
		t.Fatalf("final result %v", res.Words)
	}
	requireSameResult(t, d.Decode(scores, DefaultConfig()), res)
}
