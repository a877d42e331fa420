// Package viterbisim models the UNFOLD Viterbi-search accelerator
// (Section III-A, Table III) and the paper's extension of it: the
// pipeline issues one arc per cycle when every access hits on chip;
// cache misses and hash-table overflow traffic to main memory add
// latency and energy on top.
//
// The simulator consumes the real memory access stream of a decode via
// decoder.MemoryProbe, so the cache behaviour is driven by the actual
// WFST walk rather than by assumed hit rates, and it reads the
// hypothesis-store activity counters (internal/core) for the hash
// cycles — single-cycle for the proposed N-best table, collision
// chains and DRAM overflow penalties for the UNFOLD baseline.
package viterbisim

import (
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/energy"
)

// Config mirrors Table III plus the memory-system parameters.
type Config struct {
	FrequencyHz     float64
	LineSize        int64
	StateCacheBytes int
	StateCacheWays  int
	ArcCacheBytes   int
	ArcCacheWays    int
	LatticeBytes    int
	LatticeWays     int
	DRAMLatency     int64 // cycles per line fill at accelerator clock
	// NBestTable marks the proposed design: smaller hash energy and
	// halved accelerator area (affects static power via AreaScale).
	NBestTable bool
}

// PaperConfig returns the Table III configuration: 256 KB 4-way state
// cache, 768 KB 8-way arc cache, 128 KB 2-way word-lattice cache,
// 64 B lines, 500 MHz clock.
func PaperConfig() Config {
	return Config{
		FrequencyHz:     500e6,
		LineSize:        64,
		StateCacheBytes: 256 << 10,
		StateCacheWays:  4,
		ArcCacheBytes:   768 << 10,
		ArcCacheWays:    8,
		LatticeBytes:    128 << 10,
		LatticeWays:     2,
		DRAMLatency:     50,
	}
}

// NBestConfig is PaperConfig with the proposed replacement hash table.
func NBestConfig() Config {
	cfg := PaperConfig()
	cfg.NBestTable = true
	return cfg
}

// Simulator accumulates activity for one decode (or a whole test set).
type Simulator struct {
	cfg     Config
	state   *Cache
	arc     *Cache
	lattice *Cache

	missCycles int64
	frames     int64

	// per-frame cycle trace for tail-latency analysis
	frameCycles     []int64
	cyclesThisFrame int64
}

// New builds a simulator for the given configuration. It panics if
// cfg.LineSize is not a power of two.
func New(cfg Config) *Simulator {
	return &Simulator{
		cfg:     cfg,
		state:   NewCache("state", cfg.StateCacheBytes, cfg.StateCacheWays, cfg.LineSize),
		arc:     NewCache("arc", cfg.ArcCacheBytes, cfg.ArcCacheWays, cfg.LineSize),
		lattice: NewCache("lattice", cfg.LatticeBytes, cfg.LatticeWays, cfg.LineSize),
	}
}

var _ decoder.MemoryProbe = (*Simulator)(nil)

// Access implements decoder.MemoryProbe.
func (s *Simulator) Access(region decoder.Region, addr int64, bytes int) {
	var misses int
	switch region {
	case decoder.RegionState:
		misses = s.state.Access(addr, bytes)
	case decoder.RegionArc:
		misses = s.arc.Access(addr, bytes)
	case decoder.RegionLattice:
		misses = s.lattice.Access(addr, bytes)
	}
	if misses > 0 {
		penalty := int64(misses) * s.cfg.DRAMLatency
		s.missCycles += penalty
		s.cyclesThisFrame += penalty
	}
}

// FrameDone implements decoder.MemoryProbe.
func (s *Simulator) FrameDone() {
	s.frames++
	s.frameCycles = append(s.frameCycles, s.cyclesThisFrame)
	s.cyclesThisFrame = 0
}

// Report is the timing/energy outcome of a simulated decode.
type Report struct {
	Cycles      int64
	Seconds     float64
	Energy      energy.Account
	PipeCycles  int64 // pipeline-bound cycles (busiest stage)
	MissCycles  int64 // DRAM fill penalty cycles
	StoreCycles int64 // hash-table access cycles (incl. overflow penalties)
	Bottleneck  Stage // the stage that bounds the pipeline
	StageOps    [numStages]int64
	StateMiss   float64
	ArcMiss     float64
	FrameCycles []int64 // per-frame cycles (pipeline share spread evenly)
}

// Finish combines the memory simulation with the decode statistics
// into a timing/energy report. Call once per simulated decode set.
func (s *Simulator) Finish(stats decoder.Stats) Report {
	storeStats := stats.Store
	// The pipeline overlaps its five stages; throughput is bounded by
	// the busiest stage. Hash-table latency beyond one access per
	// hypothesis (collision chains, overflow DRAM trips) and cache
	// misses serialize on top.
	work := StageWork(stats)
	pipe, bottleneck := DefaultStageModel().PipelineCycles(work)
	extraStore := storeStats.Cycles - work[StageHypothesisIssuer]
	if extraStore < 0 {
		extraStore = 0
	}
	cycles := pipe + s.missCycles + extraStore

	rep := Report{
		Cycles:      cycles,
		Seconds:     float64(cycles) / s.cfg.FrequencyHz,
		PipeCycles:  pipe,
		MissCycles:  s.missCycles,
		StoreCycles: extraStore,
		Bottleneck:  bottleneck,
		StageOps:    work,
		StateMiss:   s.state.MissRate(),
		ArcMiss:     s.arc.MissRate(),
	}

	// Per-frame cycles: the probe records miss penalties per frame;
	// pipeline and store cycles are apportioned by recorded frames.
	if n := int64(len(s.frameCycles)); n > 0 {
		perFramePipe := (pipe + extraStore) / n
		rep.FrameCycles = make([]int64, n)
		for i, mc := range s.frameCycles {
			rep.FrameCycles[i] = mc + perFramePipe
		}
	}

	rep.Energy = s.energyFor(stats, storeStats, rep.Seconds)
	obsDecodes.Inc()
	obsCycles.Add(rep.Cycles)
	obsEnergy.Add(rep.Energy.TotalJ())
	return rep
}

func (s *Simulator) energyFor(stats decoder.Stats, store core.Stats, seconds float64) energy.Account {
	var acc energy.Account
	acc.AddDynamic(s.state.Hits, energy.StateCachePJ)
	acc.AddDynamic(s.arc.Hits, energy.ArcCachePJ)
	acc.AddDynamic(s.lattice.Hits, energy.LatticeCachePJ)
	acc.AddDynamic(s.state.Misses+s.arc.Misses+s.lattice.Misses, energy.DRAMLinePJ)
	// The acoustic likelihood buffer holds the whole frame's scores on
	// chip: one read, always a hit, per hypothesis within the beam.
	acc.AddDynamic(stats.Hypotheses, energy.AcousticBufPJ)
	// Likelihood evaluation: one FP add per eps arc, add+compare per
	// emitting arc.
	acc.AddDynamic(stats.ArcsEvaluated, energy.FPAddPJ+energy.FPCmpPJ)
	acc.AddDynamic(stats.EpsExpansions, energy.FPAddPJ)
	// Hash traffic.
	hashPJ := energy.HashTablePJ
	staticW := energy.ViterbiStaticW
	if s.cfg.NBestTable {
		hashPJ = energy.NBestTablePJ
		// the proposed design halves the accelerator area (21.45 ->
		// 10.74 mm^2), which we reflect in leakage
		staticW *= 10.74 / 21.45
	}
	acc.AddDynamic(store.Inserts+store.BackupAccesses, hashPJ)
	acc.AddDynamic(store.Overflows, energy.DRAMWordPJ)
	acc.AddStatic(seconds, staticW)
	return acc
}
