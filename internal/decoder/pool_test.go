package decoder

import (
	"sort"
	"testing"

	"repro/internal/mat"
)

// poolStores is the store matrix the pooling tests sweep: the UNFOLD
// baseline, a small N-best table, and the paper's N-best geometry
// (128 sets × 8 ways); the zero-allocation contract covers all three.
func poolStores() []struct {
	name  string
	store StoreFactory
} {
	return []struct {
		name  string
		store StoreFactory
	}{
		{"unbounded", nil},
		{"setassoc", SetAssocStore(8, 4)},
		{"setassoc-served", SetAssocStore(128, 8)},
	}
}

// requireSameFinals pins the full n-best readout, which
// requireSameResult does not cover.
func requireSameFinals(t *testing.T, want, got Result) {
	t.Helper()
	if len(want.Finals) != len(got.Finals) {
		t.Fatalf("finals length mismatch: %d vs %d", len(want.Finals), len(got.Finals))
	}
	for i := range want.Finals {
		w, g := want.Finals[i], got.Finals[i]
		if w.Cost != g.Cost || len(w.Words) != len(g.Words) {
			t.Fatalf("finals[%d] mismatch: %+v vs %+v", i, w, g)
		}
		for j := range w.Words {
			if w.Words[j] != g.Words[j] {
				t.Fatalf("finals[%d] words mismatch: %v vs %v", i, w.Words, g.Words)
			}
		}
	}
}

// TestPooledMatchesHeapAlloc pins the tentpole determinism contract:
// arena-pooled decoding is bit-identical — words, costs, n-best list,
// and every store/cycle statistic — to the HeapAlloc reference path
// (the pre-pooling allocator behaviour).
func TestPooledMatchesHeapAlloc(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(51)

	for trial := 0; trial < 3; trial++ {
		scores := randomScores(world, rng, 12+rng.Intn(6))
		for _, st := range poolStores() {
			cfg := Config{Beam: 15, AcousticScale: 1, NewStore: st.store}
			heapCfg := cfg
			heapCfg.HeapAlloc = true

			want := d.Decode(scores, heapCfg)
			got := d.Decode(scores, cfg)
			requireSameResult(t, want, got)
			requireSameFinals(t, want, got)
		}
	}
}

// TestRestartMatchesFresh pins that a recycled session (Restart after
// a full decode) produces results bit-identical to a fresh
// Decoder.Start — store statistics included, since the store is
// reused in place.
func TestRestartMatchesFresh(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(52)
	first := randomScores(world, rng, 14)
	second := randomScores(world, rng, 11)

	decode := func(s *Session, scores [][]float64) Result {
		for _, f := range scores {
			if err := s.PushFrame(f); err != nil {
				t.Fatal(err)
			}
			if s.Active() == 0 {
				break
			}
		}
		return s.Finish()
	}

	for _, st := range poolStores() {
		for _, heap := range []bool{false, true} {
			cfg := Config{Beam: 15, AcousticScale: 1, NewStore: st.store, HeapAlloc: heap}

			s := d.Start(cfg)
			decode(s, first)
			if err := s.Restart(cfg); err != nil {
				t.Fatal(err)
			}
			reused := decode(s, second)

			fresh := decode(d.Start(cfg), second)
			requireSameResult(t, fresh, reused)
			requireSameFinals(t, fresh, reused)
		}
	}
}

// TestRestartLifecycle covers the Restart contract edges: a zero
// session cannot restart, a finished session can, and restarting
// mid-utterance abandons the partial decode cleanly.
func TestRestartLifecycle(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(53)
	scores := randomScores(world, rng, 10)
	cfg := Config{Beam: 15, AcousticScale: 1}

	var zero Session
	if err := zero.Restart(cfg); err != ErrNotStarted {
		t.Fatalf("zero session Restart = %v, want ErrNotStarted", err)
	}

	s := d.Start(cfg)
	s.Finish()
	if err := s.PushFrame(scores[0]); err != ErrFinished {
		t.Fatalf("PushFrame after Finish = %v, want ErrFinished", err)
	}
	if err := s.Restart(cfg); err != nil {
		t.Fatalf("Restart after Finish: %v", err)
	}
	if err := s.PushFrame(scores[0]); err != nil {
		t.Fatalf("PushFrame after Restart: %v", err)
	}

	// Abandon mid-utterance; the next decode must match a fresh one.
	if err := s.Restart(cfg); err != nil {
		t.Fatalf("mid-utterance Restart: %v", err)
	}
	var reused Result
	for _, f := range scores {
		if err := s.PushFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	reused = s.Finish()
	requireSameResult(t, d.Decode(scores, cfg), reused)
}

// TestFinalsSortedByCost pins the documented Result.Finals readout
// order: ascending cost, best first.
func TestFinalsSortedByCost(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(54)

	found := false
	for trial := 0; trial < 5; trial++ {
		scores := randomScores(world, rng, 12)
		r := d.Decode(scores, Config{Beam: 40, AcousticScale: 1})
		if !sort.SliceIsSorted(r.Finals, func(i, j int) bool {
			return r.Finals[i].Cost < r.Finals[j].Cost
		}) {
			t.Fatalf("Finals not sorted by cost: %+v", r.Finals)
		}
		if r.OK && len(r.Finals) > 1 {
			found = true
			if r.Finals[0].Cost != r.Cost {
				t.Fatalf("Finals[0].Cost = %v, want best cost %v", r.Finals[0].Cost, r.Cost)
			}
		}
	}
	if !found {
		t.Fatal("no decode produced a multi-hypothesis n-best list; widen the beam")
	}
}

// TestPartialKeepsPooledDecodeIntact guards the snapshot discipline:
// Partial runs a closure on a copy, so interleaving readouts with
// PushFrame must not change the final pooled result (the snapshot
// shares token pointers with the live map and the arenas).
func TestPartialKeepsPooledDecodeIntact(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(55)
	scores := randomScores(world, rng, 12)
	cfg := Config{Beam: 15, AcousticScale: 1}

	want := d.Decode(scores, cfg)

	s := d.Start(cfg)
	for _, f := range scores {
		if err := s.PushFrame(f); err != nil {
			t.Fatal(err)
		}
		s.Partial()
		if s.Active() == 0 {
			break
		}
	}
	requireSameResult(t, want, s.Finish())
}

// TestPushFrameSteadyStateAllocs is the allocation-regression gate:
// after one warmup utterance, a full Restart + decode cycle on a
// pooled session performs zero heap allocations, for both store
// designs and the 128×8 N-best geometry that
// BenchmarkSessionPushFrame's "nbest" series runs.
func TestPushFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds checked without -race")
	}
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(56)
	scores := randomScores(world, rng, 16)

	for _, st := range poolStores() {
		cfg := Config{Beam: 15, AcousticScale: 1, NewStore: st.store}
		s := d.Start(cfg)
		utterance := func() {
			for _, f := range scores {
				if err := s.PushFrame(f); err != nil {
					t.Fatal(err)
				}
				if s.Active() == 0 {
					break
				}
			}
		}
		utterance() // warmup: grow arenas, maps, and store scratch
		if err := s.Restart(cfg); err != nil {
			t.Fatal(err)
		}
		utterance() // second warmup: first Restart may still size scratch
		allocs := testing.AllocsPerRun(3, func() {
			if err := s.Restart(cfg); err != nil {
				t.Fatal(err)
			}
			utterance()
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Restart+PushFrame allocates %.1f allocs/run, want 0", st.name, allocs)
		}
	}
}

// TestArenaReuseSecondUtterance pins that a second identical utterance
// on a warmed session performs no arena growth: the arenas reach their
// high-water mark during the first decode and are recycled, not
// extended, from then on.
func TestArenaReuseSecondUtterance(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(57)
	scores := randomScores(world, rng, 16)

	for _, st := range poolStores() {
		cfg := Config{Beam: 15, AcousticScale: 1, NewStore: st.store}
		s := d.Start(cfg)
		run := func() {
			for _, f := range scores {
				if err := s.PushFrame(f); err != nil {
					t.Fatal(err)
				}
				if s.Active() == 0 {
					break
				}
			}
			s.Finish()
		}
		run()
		warm := s.Arena()
		if warm.TokenSlots == 0 || warm.Bytes == 0 {
			t.Fatalf("%s: pooled session reports empty arena after decode: %+v", st.name, warm)
		}
		if err := s.Restart(cfg); err != nil {
			t.Fatal(err)
		}
		run()
		if got := s.Arena(); got != warm {
			t.Errorf("%s: arena grew across identical utterances: %+v -> %+v", st.name, warm, got)
		}
	}
}

// TestHeapAllocSessionReportsNoArena pins that the ablation mode stays
// off the arenas entirely.
func TestHeapAllocSessionReportsNoArena(t *testing.T) {
	world, graph := sessionWorld(t)
	d := New(graph)
	rng := mat.NewRNG(58)
	scores := randomScores(world, rng, 8)

	s := d.Start(Config{Beam: 15, AcousticScale: 1, HeapAlloc: true})
	for _, f := range scores {
		if err := s.PushFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	s.Finish()
	if got := s.Arena(); got != (ArenaStats{}) {
		t.Fatalf("HeapAlloc session reports arena use: %+v", got)
	}
}
