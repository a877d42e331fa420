package decoder

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/speech"
	"repro/internal/wfst"
)

// toyGraph builds a minimal two-word decoding graph by hand:
//
//	start --ε:word0/c0--> chain(senone 0,1) --ε--> hub (final)
//	start --ε:word1/c1--> chain(senone 2,3) --ε--> hub (final)
//
// Each chain state has a self-loop so any positive duration decodes.
func toyGraph() *wfst.FST {
	f := wfst.New(0, 0)
	start := f.AddState()
	hub := f.AddState()
	f.Start = start
	f.SetFinal(hub, 0)
	addWord := func(word int, senones []int, lmCost float64) {
		entry := f.AddState()
		f.AddArc(start, wfst.Arc{OLabel: wfst.OLabelOf(word), Weight: lmCost, Next: entry})
		q := entry
		for _, s := range senones {
			next := f.AddState()
			f.AddArc(q, wfst.Arc{ILabel: wfst.ILabelOf(s), Weight: 0.7, Next: next})
			f.AddArc(next, wfst.Arc{ILabel: wfst.ILabelOf(s), Weight: 0.6, Next: next})
			q = next
		}
		f.AddArc(q, wfst.Arc{Next: hub})
	}
	addWord(0, []int{0, 1}, 0.1)
	addWord(1, []int{2, 3}, 0.1)
	return f
}

// scoresFor produces sharp acoustic log-posteriors following the given
// senone sequence.
func scoresFor(seq []int, numSenones int, sharp float64) [][]float64 {
	out := make([][]float64, len(seq))
	for t, target := range seq {
		frame := make([]float64, numSenones)
		// log posterior: target gets ~0, rest get -sharp
		for s := range frame {
			if s == target {
				frame[s] = -0.01
			} else {
				frame[s] = -sharp
			}
		}
		out[t] = frame
	}
	return out
}

func TestDecodeRecognizesWord(t *testing.T) {
	f := toyGraph()
	d := New(f)
	// two frames of senone 0 then two of senone 1 → word 0
	scores := scoresFor([]int{0, 0, 1, 1}, 4, 8)
	r := d.Decode(scores, DefaultConfig())
	if !r.OK {
		t.Fatalf("decode failed")
	}
	if len(r.Words) != 1 || r.Words[0] != 0 {
		t.Fatalf("decoded %v, want [0]", r.Words)
	}
	// word 1's senones
	scores = scoresFor([]int{2, 2, 3}, 4, 8)
	r = d.Decode(scores, DefaultConfig())
	if len(r.Words) != 1 || r.Words[0] != 1 {
		t.Fatalf("decoded %v, want [1]", r.Words)
	}
}

func TestDecodeCostIsViterbiOptimal(t *testing.T) {
	// cost of the decoded path must equal the hand-computed best-path
	// cost: LM + per-frame transition + acoustic costs
	f := toyGraph()
	d := New(f)
	scores := scoresFor([]int{0, 1}, 4, 8)
	r := d.Decode(scores, Config{Beam: 0, AcousticScale: 1})
	// path: entry(0.1), fwd s0 (0.7 + 0.01), fwd s1 (0.7 + 0.01), exit (0)
	want := 0.1 + 0.7 + 0.01 + 0.7 + 0.01
	if math.Abs(r.Cost-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", r.Cost, want)
	}
}

func TestBeamPruningReducesWork(t *testing.T) {
	f := toyGraph()
	d := New(f)
	scores := scoresFor([]int{0, 0, 1, 1}, 4, 8)
	wide := d.Decode(scores, Config{Beam: 0, AcousticScale: 1}) // unbounded
	narrow := d.Decode(scores, Config{Beam: 2, AcousticScale: 1})
	if narrow.Stats.Hypotheses > wide.Stats.Hypotheses {
		t.Fatalf("narrow beam did more work: %d vs %d",
			narrow.Stats.Hypotheses, wide.Stats.Hypotheses)
	}
	if !narrow.OK || narrow.Words[0] != 0 {
		t.Fatalf("narrow beam lost the answer")
	}
}

func TestFlatScoresIncreaseWorkload(t *testing.T) {
	// the paper's core mechanism: flatter acoustic scores leave more
	// hypotheses within the beam
	f := toyGraph()
	d := New(f)
	seq := []int{0, 0, 1, 1}
	sharp := d.Decode(scoresFor(seq, 4, 10), DefaultConfig())
	flat := d.Decode(scoresFor(seq, 4, 1.5), DefaultConfig())
	if flat.Stats.Hypotheses <= sharp.Stats.Hypotheses {
		t.Fatalf("flat scores should explore more: %d vs %d",
			flat.Stats.Hypotheses, sharp.Stats.Hypotheses)
	}
}

func TestStoreVariantsAgreeOnEasyInput(t *testing.T) {
	f := toyGraph()
	d := New(f)
	scores := scoresFor([]int{2, 2, 3, 3}, 4, 8)
	for name, factory := range map[string]StoreFactory{
		"unbounded": UnboundedStore(0, 0, 0),
		"setassoc":  SetAssocStore(4, 4),
		"accurate":  AccurateStore(16),
	} {
		r := d.Decode(scores, Config{Beam: 15, AcousticScale: 1, NewStore: factory})
		if !r.OK || len(r.Words) != 1 || r.Words[0] != 1 {
			t.Fatalf("%s store decoded %v", name, r.Words)
		}
	}
}

func TestDecodeOnRealWorld(t *testing.T) {
	// end-to-end over a compiled synthetic world with oracle scores
	cfg := speech.DefaultConfig()
	cfg.NumPhones = 6
	cfg.Vocab = 8
	cfg.FeatDim = 5
	world, err := speech.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	graph := wfst.Compile(world)
	d := New(graph)
	u := world.Synthesize(4, mat.NewRNG(3))
	// oracle acoustic scores straight from the alignment
	scores := scoresFor(u.Align, world.NumSenones(), 12)
	r := d.Decode(scores, DefaultConfig())
	if !r.OK {
		t.Fatalf("decode failed")
	}
	if len(r.Words) != len(u.Words) {
		t.Fatalf("decoded %v, want %v", r.Words, u.Words)
	}
	for i := range u.Words {
		if r.Words[i] != u.Words[i] {
			t.Fatalf("decoded %v, want %v", r.Words, u.Words)
		}
	}
}

func TestStatsAndPerFrameRecording(t *testing.T) {
	f := toyGraph()
	d := New(f)
	scores := scoresFor([]int{0, 1}, 4, 8)
	r := d.Decode(scores, Config{Beam: 15, AcousticScale: 1, RecordPerFrame: true})
	if r.Stats.Frames != 2 {
		t.Fatalf("frames = %d", r.Stats.Frames)
	}
	if len(r.Frames) != 2 {
		t.Fatalf("per-frame records = %d", len(r.Frames))
	}
	if r.Stats.Hypotheses == 0 || r.Stats.ArcsEvaluated == 0 {
		t.Fatalf("stats empty: %+v", r.Stats)
	}
	if r.Stats.MaxActive == 0 || r.Stats.MeanActive() == 0 {
		t.Fatalf("active stats empty")
	}
}

func TestWordLinkDecoded(t *testing.T) {
	var w *WordLink
	if got := w.Decoded(); got != nil {
		t.Fatalf("nil chain should decode to nil, got %v", got)
	}
	w = &WordLink{Word: 2, Prev: &WordLink{Word: 1, Prev: &WordLink{Word: 0}}}
	got := w.Decoded()
	for i, want := range []int{0, 1, 2} {
		if got[i] != want {
			t.Fatalf("Decoded = %v", got)
		}
	}
}

type countingProbe struct {
	accesses map[Region]int
	frames   int
}

func (p *countingProbe) Access(r Region, addr int64, bytes int) {
	if p.accesses == nil {
		p.accesses = map[Region]int{}
	}
	p.accesses[r]++
}
func (p *countingProbe) FrameDone() { p.frames++ }

func TestMemoryProbeInvoked(t *testing.T) {
	f := toyGraph()
	d := New(f)
	probe := &countingProbe{}
	scores := scoresFor([]int{0, 0, 1}, 4, 8)
	r := d.Decode(scores, Config{Beam: 15, AcousticScale: 1, Probe: probe})
	if probe.frames != 3 {
		t.Fatalf("FrameDone called %d times", probe.frames)
	}
	if probe.accesses[RegionState] == 0 || probe.accesses[RegionArc] == 0 {
		t.Fatalf("probe missed state/arc traffic: %v", probe.accesses)
	}
	for region := range probe.accesses {
		if region < 0 || region >= numRegions {
			t.Fatalf("probe saw unknown region %d", region)
		}
	}
	// The acoustic buffer is not probed: its reads, one per hypothesis
	// within the beam, are Stats.Hypotheses, which a simulator reads at
	// Finish (viterbisim.TestAcousticBufferNeverMisses).
	if r.Stats.Hypotheses == 0 {
		t.Fatalf("decode generated no hypotheses: %+v", r.Stats)
	}
}

func TestNBestBoundsStoredHypotheses(t *testing.T) {
	// with a 1x2 table, at most 2 hypotheses survive any frame
	f := toyGraph()
	d := New(f)
	scores := scoresFor([]int{0, 0, 1, 1}, 4, 1.0) // flat: many candidates
	var maxLen int
	r := d.Decode(scores, Config{
		Beam: 50, AcousticScale: 1,
		NewStore: func() core.Store[*Token] {
			return core.NewSetAssoc[*Token](1, 2)
		},
		RecordPerFrame: true,
	})
	for _, fa := range r.Frames {
		if fa.Active > maxLen+2 { // active = prior frame's stored + eps states
			maxLen = fa.Active
		}
	}
	if !r.OK {
		t.Fatalf("decode failed under tight N")
	}
}

func TestDecoderGraphAccessors(t *testing.T) {
	f := toyGraph()
	d := New(f)
	if d.NumStates() != f.NumStates() {
		t.Fatalf("NumStates mismatch")
	}
	if d.NumArcs() != f.NumArcs() {
		t.Fatalf("NumArcs mismatch")
	}
}

func TestDecodeZeroFrames(t *testing.T) {
	f := toyGraph()
	d := New(f)
	r := d.Decode(nil, DefaultConfig())
	// the start state is not final in the toy graph, so an empty
	// decode cannot succeed — but it must not panic and must report
	// zero frames
	if r.Stats.Frames != 0 {
		t.Fatalf("frames = %d", r.Stats.Frames)
	}
	if r.OK {
		t.Fatalf("empty decode reported success on a non-final start")
	}
}

func TestDecodeBeamCollapse(t *testing.T) {
	// a 1x1 N-best table plus adversarial recombination can strand the
	// search; the decoder must terminate cleanly either way
	f := toyGraph()
	d := New(f)
	scores := scoresFor([]int{0, 3, 0, 3}, 4, 12) // contradictory evidence
	r := d.Decode(scores, Config{
		Beam: 1, AcousticScale: 1,
		NewStore: SetAssocStore(1, 1),
	})
	_ = r // reaching here without panic is the requirement
}

func TestDecodeScoresNarrowerThanSenones(t *testing.T) {
	f := toyGraph() // senones 0..3
	d := New(f)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for truncated score vector")
		}
	}()
	d.Decode([][]float64{{-1, -1}}, DefaultConfig()) // only 2 senones
}
