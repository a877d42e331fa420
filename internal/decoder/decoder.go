// Package decoder implements frame-synchronous Viterbi beam search
// over a WFST, the consumer of the DNN acoustic scores in the ASR
// pipeline. The per-frame hypothesis container is pluggable (see
// internal/core): an unbounded UNFOLD-style table reproduces the
// baseline behaviour whose workload explodes under pruned DNNs, and
// the set-associative N-best table reproduces the paper's fix.
package decoder

import (
	"repro/internal/core"
	"repro/internal/wfst"
)

// Token is one partial hypothesis: the accumulated cost of the best
// path reaching a WFST state, plus the word history for backtrace.
type Token struct {
	Cost  float64
	Words *WordLink
}

// WordLink is an immutable backtrace node; sharing tails keeps the
// word lattice cheap, like the word-lattice storage in UNFOLD.
type WordLink struct {
	Word int
	Prev *WordLink
}

// Decoded extracts the word sequence from a backtrace chain.
func (w *WordLink) Decoded() []int {
	var rev []int
	for n := w; n != nil; n = n.Prev {
		rev = append(rev, n.Word)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Region identifies a memory structure for the accelerator probe.
type Region int

const (
	RegionState Region = iota
	RegionArc
	RegionLattice
	numRegions
)

// MemoryProbe observes the decoder's memory traffic so an accelerator
// simulator can drive cache and DRAM models from the real access
// stream. All methods must be cheap; they sit on the decode hot path.
type MemoryProbe interface {
	// Access records a read or write of size bytes at addr within the
	// given region's address space.
	Access(region Region, addr int64, bytes int)
	// FrameDone marks the end of a frame's processing.
	FrameDone()
}

// StoreFactory builds a fresh hypothesis store for a decode.
type StoreFactory func() core.Store[*Token]

// Config controls a decode.
type Config struct {
	// Beam is the pruning width in -log space (paper: 15 default,
	// 12.5/10/9/8 for the reduced-beam mitigation). <=0 disables
	// beam pruning.
	Beam float64
	// AcousticScale multiplies the acoustic log-likelihood cost, the
	// usual ASR knob balancing acoustic vs language model.
	AcousticScale float64
	// NewStore supplies the per-frame hypothesis container. Nil means
	// an UNFOLD-style unbounded table with default geometry.
	NewStore StoreFactory
	// MaxActive, when positive, caps the number of tokens expanded per
	// frame to the cheapest MaxActive survivors — classic histogram
	// pruning. It needs the partial sort the paper's hardware design
	// avoids; it is provided as the software comparison point.
	MaxActive int
	// Policy, if non-nil, adapts the beam width and max-active cap per
	// frame (see BeamPolicy in policy.go and internal/control). The
	// frame's parameters replace Beam and MaxActive for that frame
	// only; nil keeps the static configuration at zero overhead.
	Policy BeamPolicy
	// RecordPerFrame retains per-frame activity in Result.Frames.
	RecordPerFrame bool
	// Probe, if non-nil, observes memory traffic for simulators.
	Probe MemoryProbe
	// HeapAlloc disables the session's pooled allocation (token/word
	// arenas, the two token maps reused across frames) and reverts to
	// plain heap allocation on the hot path — a fresh token map per
	// frame, the pre-pooling reference behaviour. Results are bit-identical either way (pinned by
	// tests); the flag exists as the ablation baseline the decode
	// benchmarks and determinism guards compare against. Structural:
	// fixed at Start, ignored by Restart.
	HeapAlloc bool
}

// DefaultConfig mirrors the paper's baseline setup (beam 15).
func DefaultConfig() Config {
	return Config{Beam: 15, AcousticScale: 1.0}
}

// FrameActivity is the per-frame workload record.
type FrameActivity struct {
	Active      int     // tokens alive at frame start (after pruning)
	EpsArcs     int     // epsilon arcs relaxed
	EmitArcs    int     // emitting arcs evaluated (paper's "hypotheses explored")
	Inserts     int     // insert attempts into the next-frame store
	StoreCycles int64   // modelled store access cycles this frame
	Beam        float64 // beam width applied this frame (adaptive or static)
}

// Stats summarizes a decode.
type Stats struct {
	Frames        int
	ArcsEvaluated int64 // emitting arcs examined (pipeline work)
	Hypotheses    int64 // new hypotheses generated within the beam
	EpsExpansions int64
	MaxActive     int
	SumActive     int64
	Store         core.Stats
}

// MeanActive reports the average live hypotheses per frame.
func (s Stats) MeanActive() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.SumActive) / float64(s.Frames)
}

// Result is the outcome of decoding one utterance.
type Result struct {
	Words  []int
	Cost   float64
	OK     bool // false if no final state was reached
	Stats  Stats
	Frames []FrameActivity // populated when Config.RecordPerFrame
	// Finals holds every surviving final-state hypothesis, sorted by
	// cost (best first, ties keeping the final-state iteration order);
	// NBest and OracleWER consume it.
	Finals []Hypothesis
}

// Decoder holds immutable decode-time structures for one graph —
// either a precompiled wfst.FST or an on-the-fly wfst.Lazy
// composition. A Decoder is read-only after New and safe for any
// number of concurrent Sessions; the mutable state of a decode lives
// in the Session (see session.go for the full ownership contract).
type Decoder struct {
	fst     wfst.Graph
	arcBase []int64 // cumulative arc index per state (eager graphs only)
}

// Record sizes for the probe address streams, matching UNFOLD's packed
// layouts (a state record and an arc record are ~8-16 bytes each).
const (
	stateRecordBytes = 8
	arcRecordBytes   = 16
	latticeBytes     = 8
)

// New prepares a decoder for the given graph. For a precompiled FST
// the probe's arc addresses follow the packed arc array exactly; for a
// lazy composition they are approximated by state id (each state's arc
// block on its own region), since no packed layout exists offline.
func New(g wfst.Graph) *Decoder {
	d := &Decoder{fst: g}
	if f, ok := g.(*wfst.FST); ok {
		d.arcBase = make([]int64, f.NumStates()+1)
		for s := 0; s < f.NumStates(); s++ {
			d.arcBase[s+1] = d.arcBase[s] + int64(len(f.Arcs(int32(s))))
		}
	}
	return d
}

// arcAddr returns the probe address of state s's arc block.
func (d *Decoder) arcAddr(s int32) int64 {
	if d.arcBase != nil {
		return d.arcBase[s] * arcRecordBytes
	}
	return int64(s) * 4 * arcRecordBytes // lazy: assume ~4 arcs per state slot
}

// NumStates exposes the graph size (used by accelerator address maps).
func (d *Decoder) NumStates() int { return d.fst.NumStates() }

// NumArcs exposes the graph arc count (eager graphs only; lazy graphs
// report 0 because their arc count is not known upfront).
func (d *Decoder) NumArcs() int {
	if d.arcBase == nil {
		return 0
	}
	return int(d.arcBase[len(d.arcBase)-1])
}

// Decode runs Viterbi beam search over the per-frame acoustic
// log-posterior scores (scores[t][senone], values <= 0). It is a thin
// batch loop over a Session.
func (d *Decoder) Decode(scores [][]float64, cfg Config) Result {
	s := d.Start(cfg)
	for t := range scores {
		s.PushFrame(scores[t])
		if s.Active() == 0 {
			break // beam collapsed; no surviving hypotheses
		}
	}
	return s.Finish()
}
