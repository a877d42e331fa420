// Package core implements the paper's primary contribution: hypothesis
// stores for Viterbi beam search, in particular the K-way
// set-associative hash table that loosely tracks the N-best hypotheses
// per frame using a per-set Max-Heap with a Maximum-path index vector,
// enabling single-cycle worst-hypothesis replacement (Section III-B,
// Figure 8).
//
// Three stores are provided:
//
//   - SetAssoc: the proposed design (associativity K, N = sets*K).
//   - Unbounded: UNFOLD's direct-mapped table with backup and overflow
//     buffers; stores everything, modelling collision and DRAM costs.
//   - AccurateNBest: an oracle that keeps exactly the N cheapest
//     hypotheses (the expensive partial sort the paper avoids).
//
// All stores recombine on key: inserting a key that is already present
// keeps the minimum cost, the Viterbi recombination rule.
package core

// Outcome describes what an Insert did.
type Outcome int

const (
	// Inserted means the hypothesis was stored in a free slot.
	Inserted Outcome = iota
	// Recombined means the key existed; the minimum cost was kept.
	Recombined
	// Evicted means the hypothesis displaced the worst entry of a full
	// set (or full table).
	Evicted
	// Rejected means the hypothesis was worse than everything in its
	// full set and was dropped.
	Rejected
)

func (o Outcome) String() string {
	switch o {
	case Inserted:
		return "inserted"
	case Recombined:
		return "recombined"
	case Evicted:
		return "evicted"
	case Rejected:
		return "rejected"
	}
	return "unknown"
}

// Stats accumulates modelled activity for a store across one decode.
type Stats struct {
	Inserts        int64 // total Insert calls
	Stored         int64 // inserts that landed in a free slot
	Recombines     int64
	Evictions      int64
	Rejections     int64
	Collisions     int64 // direct-mapped only: slot occupied by other key
	BackupAccesses int64 // direct-mapped only: backup-buffer operations
	Overflows      int64 // direct-mapped only: spills to DRAM overflow buffer
	Cycles         int64 // modelled access cycles
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Inserts += other.Inserts
	s.Stored += other.Stored
	s.Recombines += other.Recombines
	s.Evictions += other.Evictions
	s.Rejections += other.Rejections
	s.Collisions += other.Collisions
	s.BackupAccesses += other.BackupAccesses
	s.Overflows += other.Overflows
	s.Cycles += other.Cycles
}

// Store is a per-frame hypothesis container used by the Viterbi search.
// P is the payload type (the decoder's token).
type Store[P any] interface {
	// Reset clears contents for the next frame; statistics accumulate.
	Reset()
	// Insert offers a hypothesis; the store applies recombination and
	// its capacity policy.
	Insert(key uint64, cost float64, payload P) Outcome
	// Len reports the number of stored hypotheses.
	Len() int
	// Each visits every stored hypothesis.
	Each(func(key uint64, cost float64, payload P))
	// Capacity reports the maximum number of hypotheses (0 = unbounded).
	Capacity() int
	// Stats returns accumulated activity counters.
	Stats() Stats
	// ResetStats zeroes the accumulated counters, returning a reused
	// store to the state a freshly constructed one reports. Pooled
	// sessions call it on Restart so per-utterance statistics stay
	// bit-identical to a fresh store.
	ResetStats()
}

// hashKey mixes the hypothesis key into a well-distributed index; the
// hardware uses an XOR hash of the hypothesis information, which this
// finalizer-style mix emulates.
func hashKey(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return key
}

// reducer maps a hash to a slot in [0, n): a mask when n is a power of
// two, a modulo otherwise. Both read hash % n; the mask spares the
// divide on the geometries that allow it.
type reducer struct {
	n    uint64
	pow2 bool
}

func newReducer(n int) reducer {
	return reducer{n: uint64(n), pow2: n&(n-1) == 0}
}

func (r reducer) of(h uint64) uint64 {
	if r.pow2 {
		return h & (r.n - 1)
	}
	return h % r.n
}
