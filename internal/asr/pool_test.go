package asr

import (
	"testing"

	"repro/internal/decoder"
	"repro/internal/speech"
)

// TestPooledEngineMatchesHeapAllocReference is the end-to-end
// determinism guard for the zero-allocation decode path: a pooled
// engine run — per-worker sessions restarted across utterances, token
// and word-link arenas, epoch-stamped token maps, de-allocated store
// scratch — must be bit-identical to the heap-allocation reference
// path (the pre-pooling allocator behaviour) in transcripts, WER,
// workload counters, store statistics, and modelled accelerator
// cycles/energy, at every pruning level and at any pool width. Run
// under -race in CI, this also exercises the per-worker ownership
// contract of the session pool.
func TestPooledEngineMatchesHeapAllocReference(t *testing.T) {
	sys := tinySystem(t)
	cfgs := []PipelineConfig{
		sys.Preset(MitigationNone, 0),
		sys.Preset(MitigationNone, 70),
		sys.Preset(MitigationNone, 90),
		sys.Preset(MitigationNBest, 90), // set-associative store path
	}
	for _, cfg := range cfgs {
		ref, err := sys.RunEngine(cfg, sys.Scale.DNNConfig(), sys.Scale.ViterbiConfig(),
			EngineConfig{UttWorkers: 1, CfgWorkers: 1, HeapAlloc: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []EngineConfig{SerialEngine(), {UttWorkers: 3}, {}} {
			got, err := sys.RunEngine(cfg, sys.Scale.DNNConfig(), sys.Scale.ViterbiConfig(), eng)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, ref, got)
		}
	}
}

// TestSessionMapBytesFollowLiveSet pins that a pooled session's token
// maps are sized by the live set, not by the graph: the same test
// utterances decode with the N-best store on the tiny world and on a
// world with 4× its vocabulary (Derive keeps the models), and after
// every frame the maps' retained bytes stay under a bound computed
// from the highest live count so far. A frame's live count is at most
// the tokens entering it plus the epsilon arcs its closure relaxes.
// The bound must also sit below 16 B per graph state, what two dense
// state-indexed maps cost, so the test tells the two designs apart.
func TestSessionMapBytesFollowLiveSet(t *testing.T) {
	sys := tinySystem(t)
	wcfg := sys.World.Config
	wcfg.Vocab *= 4
	world, err := speech.NewWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	big := sys.Derive(world, sys.TestSet)
	if big.Graph.NumStates() < 3*sys.Graph.NumStates() {
		t.Fatalf("4x vocabulary gave %d states against %d", big.Graph.NumStates(), sys.Graph.NumStates())
	}
	store, err := StoreFactoryFor(sys.Scale, "nbest", 0)
	if err != nil {
		t.Fatal(err)
	}
	// One map's bytes for live count l: an index at most half full
	// that starts at 128 slots of 16 B and doubles, and an insertion
	// array of 16 B (state, token) pairs that starts at 64.
	mapBound := func(l int) int { return 16*max(128, 4*l) + 16*max(64, 2*l) }
	for _, s := range []*System{sys, big} {
		peak, worst := 0, 0
		for _, scores := range s.Scores(90) {
			sess := s.Decoder.Start(decoder.Config{Beam: DefaultBeam, AcousticScale: 1, NewStore: store, RecordPerFrame: true})
			entering := make([]int, len(scores))
			bytes := make([]int, len(scores))
			for i, f := range scores {
				entering[i] = sess.Active()
				if err := sess.PushFrame(f); err != nil {
					t.Fatal(err)
				}
				bytes[i] = sess.Arena().MapBytes
			}
			for i, fa := range sess.Finish().Frames {
				peak = max(peak, entering[i]+fa.EpsArcs)
				if bound := 2 * mapBound(peak); bytes[i] > bound {
					t.Fatalf("%d states: frame %d: maps hold %d B, bound %d B for live count %d", s.Graph.NumStates(), i, bytes[i], bound, peak)
				}
				worst = max(worst, bytes[i])
			}
		}
		if bound := 2 * mapBound(peak); bound >= 16*s.Graph.NumStates() {
			t.Fatalf("%d states: bound %d B for live count %d is no smaller than dense maps (%d B)", s.Graph.NumStates(), bound, peak, 16*s.Graph.NumStates())
		}
		t.Logf("%d states: live count <= %d, maps hold <= %d B; dense maps would hold %d B", s.Graph.NumStates(), peak, worst, 16*s.Graph.NumStates())
	}
}
