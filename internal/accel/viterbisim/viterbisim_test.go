package viterbisim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/energy"
	"repro/internal/wfst"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache("t", 1024, 2, 64) // 16 lines, 8 sets x 2 ways
	if m := c.Access(0, 64); m != 1 {
		t.Fatalf("cold access should miss once, got %d", m)
	}
	if m := c.Access(0, 64); m != 0 {
		t.Fatalf("warm access should hit, got %d", m)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("MissRate = %v", c.MissRate())
	}
	// spanning access touches two lines
	if m := c.Access(60, 8); m != 1 { // line 0 hits, line 1 misses
		t.Fatalf("spanning access misses = %d", m)
	}
	if c.Access(0, 0) != 0 {
		t.Fatalf("zero-byte access should be free")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 sets x 1 way, 64B lines: lines 0 and 2 map to set 0
	c := NewCache("t", 128, 1, 64)
	c.Access(0, 1)   // miss, set 0 holds line 0
	c.Access(128, 1) // line 2 -> set 0: evicts line 0
	if m := c.Access(0, 1); m != 1 {
		t.Fatalf("evicted line should miss")
	}
}

func TestCacheAssociativityHelps(t *testing.T) {
	// same capacity; ping-pong between two conflicting lines
	direct := NewCache("dm", 128, 1, 64)
	assoc := NewCache("sa", 128, 2, 64)
	for i := 0; i < 20; i++ {
		direct.Access(0, 1)
		direct.Access(128, 1)
		assoc.Access(0, 1)
		assoc.Access(128, 1)
	}
	if assoc.Misses >= direct.Misses {
		t.Fatalf("2-way (%d misses) should beat direct-mapped (%d)", assoc.Misses, direct.Misses)
	}
}

func smallCfg() Config {
	cfg := PaperConfig()
	cfg.StateCacheBytes = 1 << 10
	cfg.ArcCacheBytes = 2 << 10
	cfg.LatticeBytes = 1 << 10
	return cfg
}

func TestSimulatorAccumulates(t *testing.T) {
	sim := New(smallCfg())
	// sweep a working set larger than the state cache: misses expected
	for i := int64(0); i < 100; i++ {
		sim.Access(decoder.RegionState, i*64, 8)
		sim.Access(decoder.RegionArc, i*64, 16)
	}
	sim.FrameDone()
	stats := decoder.Stats{ArcsEvaluated: 100, EpsExpansions: 10}
	rep := sim.Finish(stats)
	if rep.PipeCycles != 110 {
		t.Fatalf("pipe cycles = %d", rep.PipeCycles)
	}
	if rep.MissCycles == 0 {
		t.Fatalf("expected miss cycles with tiny caches")
	}
	if rep.Cycles != rep.PipeCycles+rep.MissCycles+rep.StoreCycles {
		t.Fatalf("cycle breakdown does not add up")
	}
	if rep.Seconds <= 0 || rep.Energy.TotalJ() <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if len(rep.FrameCycles) != 1 {
		t.Fatalf("frame trace length %d", len(rep.FrameCycles))
	}
}

func TestNBestConfigCheaperStore(t *testing.T) {
	// identical decode stats, with heavy store activity: the N-best
	// design must report lower energy (smaller table + area)
	mkStats := func(storeCycles int64, overflows int64) decoder.Stats {
		return decoder.Stats{
			ArcsEvaluated: 1000, EpsExpansions: 100,
			Store: core.Stats{Inserts: 1000, Cycles: storeCycles, Overflows: overflows},
		}
	}
	base := New(PaperConfig())
	baseRep := base.Finish(mkStats(5000, 200))
	nbest := New(NBestConfig())
	nbestRep := nbest.Finish(mkStats(1000, 0))
	if nbestRep.Cycles >= baseRep.Cycles {
		t.Fatalf("N-best cycles %d should be below baseline %d", nbestRep.Cycles, baseRep.Cycles)
	}
	if nbestRep.Energy.TotalJ() >= baseRep.Energy.TotalJ() {
		t.Fatalf("N-best energy should be below baseline")
	}
}

func TestAcousticBufferNeverMisses(t *testing.T) {
	// The acoustic likelihood buffer is on chip and never misses: a
	// decode with no other activity costs exactly one buffer read per
	// hypothesis within the beam, and no miss cycles.
	sim := New(smallCfg())
	rep := sim.Finish(decoder.Stats{Hypotheses: 10000})
	if rep.MissCycles != 0 {
		t.Fatalf("acoustic buffer should be on-chip only")
	}
	if want := 10000 * energy.AcousticBufPJ; rep.Energy.DynamicPJ != want {
		t.Fatalf("dynamic energy = %v pJ, want %v", rep.Energy.DynamicPJ, want)
	}

	// A real probed decode: the dynamic energy is the cache traffic,
	// AcousticBufPJ × Stats.Hypotheses, the likelihood evaluation and
	// the hash traffic, summed in that order, bit for bit.
	f := wfst.New(0, 0)
	start, hub := f.AddState(), f.AddState()
	f.Start = start
	f.SetFinal(hub, 0)
	for word, senones := range [][]int{{0, 1}, {2, 3}, {1, 2}} {
		q := f.AddState()
		f.AddArc(start, wfst.Arc{OLabel: wfst.OLabelOf(word), Weight: 0.1, Next: q})
		for _, sen := range senones {
			next := f.AddState()
			f.AddArc(q, wfst.Arc{ILabel: wfst.ILabelOf(sen), Weight: 0.7, Next: next})
			f.AddArc(next, wfst.Arc{ILabel: wfst.ILabelOf(sen), Weight: 0.6, Next: next})
			q = next
		}
		f.AddArc(q, wfst.Arc{Next: hub})
	}
	f.AddArc(hub, wfst.Arc{Next: start})
	scores := make([][]float64, 12)
	for i := range scores {
		scores[i] = []float64{-0.5, -1, -1.5, -2}
		scores[i][i%4] = -0.01
	}
	for _, cfg := range []Config{smallCfg(), NBestConfig()} {
		sim := New(cfg)
		r := decoder.New(f).Decode(scores, decoder.Config{Beam: 15, AcousticScale: 1, Probe: sim})
		if r.Stats.Hypotheses == 0 {
			t.Fatalf("decode generated no hypotheses")
		}
		rep := sim.Finish(r.Stats)
		var acc energy.Account
		acc.AddDynamic(sim.state.Hits, energy.StateCachePJ)
		acc.AddDynamic(sim.arc.Hits, energy.ArcCachePJ)
		acc.AddDynamic(sim.lattice.Hits, energy.LatticeCachePJ)
		acc.AddDynamic(sim.state.Misses+sim.arc.Misses+sim.lattice.Misses, energy.DRAMLinePJ)
		acc.AddDynamic(r.Stats.Hypotheses, energy.AcousticBufPJ)
		acc.AddDynamic(r.Stats.ArcsEvaluated, energy.FPAddPJ+energy.FPCmpPJ)
		acc.AddDynamic(r.Stats.EpsExpansions, energy.FPAddPJ)
		hashPJ := energy.HashTablePJ
		if cfg.NBestTable {
			hashPJ = energy.NBestTablePJ
		}
		acc.AddDynamic(r.Stats.Store.Inserts+r.Stats.Store.BackupAccesses, hashPJ)
		acc.AddDynamic(r.Stats.Store.Overflows, energy.DRAMWordPJ)
		if rep.Energy.DynamicPJ != acc.DynamicPJ {
			t.Fatalf("NBestTable=%v: dynamic energy = %v pJ, want %v", cfg.NBestTable, rep.Energy.DynamicPJ, acc.DynamicPJ)
		}
	}
}

func TestStageModel(t *testing.T) {
	m := DefaultStageModel()
	stats := decoder.Stats{
		SumActive:     100,
		ArcsEvaluated: 1000,
		EpsExpansions: 50,
		Hypotheses:    400,
	}
	work := StageWork(stats)
	if work[StageArcIssuer] != 1050 || work[StageHypothesisIssuer] != 400 {
		t.Fatalf("stage work wrong: %v", work)
	}
	cycles, bottleneck := m.PipelineCycles(work)
	// arc issuer is single-issue and has the most work here
	if bottleneck != StageArcIssuer {
		t.Fatalf("bottleneck = %v", bottleneck)
	}
	if cycles != 1050 {
		t.Fatalf("pipeline cycles = %d", cycles)
	}
	// a zero-throughput stage must not divide by zero
	var bad StageModel
	if c, _ := bad.PipelineCycles(work); c <= 0 {
		t.Fatalf("degenerate model returned %d", c)
	}
}

func TestStageString(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < numStages; s++ {
		name := s.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("bad stage name %q", name)
		}
		seen[name] = true
	}
	if Stage(99).String() != "unknown" {
		t.Fatalf("out-of-range stage should be unknown")
	}
}

func TestFinishUsesBottleneckNotSum(t *testing.T) {
	sim := New(PaperConfig())
	stats := decoder.Stats{
		SumActive:     10,
		ArcsEvaluated: 1000,
		EpsExpansions: 0,
		Hypotheses:    500,
		Store:         core.Stats{Cycles: 500, Inserts: 500},
	}
	rep := sim.Finish(stats)
	// pipeline bound = arc issuer (1000), not 10+1000+500+...
	if rep.PipeCycles != 1000 {
		t.Fatalf("pipe cycles = %d, want 1000", rep.PipeCycles)
	}
	if rep.Bottleneck != StageArcIssuer {
		t.Fatalf("bottleneck = %v", rep.Bottleneck)
	}
	// store cycles exactly covered by the hypothesis issuer: no extra
	if rep.StoreCycles != 0 {
		t.Fatalf("extra store cycles = %d", rep.StoreCycles)
	}
}
