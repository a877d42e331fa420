package core

import "math/bits"

// Unbounded models UNFOLD's hypothesis storage (Section III-A): a
// direct-mapped hash table backed by an on-chip backup buffer for
// collisions and a DRAM overflow buffer once on-chip space is
// exhausted. Nothing is ever dropped — this is the baseline whose
// workload explodes under pruned DNNs.
//
// Cycle model, following the paper's description:
//   - direct-mapped hit or free slot: 1 cycle
//   - collision chained into the backup buffer: 1 cycle per chain hop
//   - overflow entry: DRAMPenalty cycles per access (main-memory latency)
//
// The software implementation is allocation-free at steady state.
// Direct-mapped slots are invalidated wholesale by an epoch bump
// (stamp == epoch means live) instead of a 32K-entry clearing loop. A
// two-level bitmap of the slots claimed this epoch (one bit per slot,
// one summary bit per nonzero bitmap word) lets Each visit live slots
// in direct-index order, and Reset clear them, without sorting and
// without reading every slot or bitmap word. Overflow entries live in
// a reusable insertion-ordered slice found through an Index, whose
// slots are epoch-stamped too, so a frame that overflowed heavily
// leaves nothing to clear. None of this changes the modelled
// behaviour: outcomes, statistics, and the deterministic readout order
// (direct slots by ascending index, then the backup buffer, then
// overflow in insertion order) are identical to the clearing
// implementation.
type Unbounded[P any] struct {
	// geometry
	directEntries int
	backupEntries int
	dramPenalty   int

	direct  []dmEntry[P]
	slotOf  reducer      // hash → direct index
	epoch   uint32       // direct[i] live iff direct[i].stamp == epoch
	claimed []uint64     // bit i: direct slot i claimed this epoch
	summary []uint64     // bit w: claimed[w] != 0
	backup  []dmEntry[P] // chained; index 0 unused (0 = nil link)

	ovIndex   Index        // key → position in ovEntries
	ovEntries []ovEntry[P] // overflow in insertion order

	count int
	stats Stats
}

type dmEntry[P any] struct {
	stamp   uint32
	key     uint64
	cost    float64
	payload P
	next    int32 // backup-buffer chain link (0 = none)
}

type ovEntry[P any] struct {
	key     uint64
	cost    float64
	payload P
}

// UNFOLD's published configuration: 32K direct-mapped entries, 16K
// backup entries, and a main-memory overflow penalty of ~100 cycles at
// the accelerator clock.
const (
	DefaultDirectEntries = 32 * 1024
	DefaultBackupEntries = 16 * 1024
	DefaultDRAMPenalty   = 100
)

// NewUnbounded builds the UNFOLD-style table. Pass zeros for defaults.
func NewUnbounded[P any](directEntries, backupEntries, dramPenalty int) *Unbounded[P] {
	if directEntries <= 0 {
		directEntries = DefaultDirectEntries
	}
	if backupEntries <= 0 {
		backupEntries = DefaultBackupEntries
	}
	if dramPenalty <= 0 {
		dramPenalty = DefaultDRAMPenalty
	}
	return &Unbounded[P]{
		directEntries: directEntries,
		backupEntries: backupEntries,
		dramPenalty:   dramPenalty,
		direct:        make([]dmEntry[P], directEntries),
		slotOf:        newReducer(directEntries),
		epoch:         1,
		claimed:       make([]uint64, (directEntries+63)/64),
		summary:       make([]uint64, (directEntries+64*64-1)/(64*64)),
		backup:        make([]dmEntry[P], 1, 1+backupEntries),
		ovIndex:       NewIndex(0),
	}
}

// Capacity is 0: the store never drops hypotheses.
func (t *Unbounded[P]) Capacity() int { return 0 }

// Len reports the number of stored hypotheses.
func (t *Unbounded[P]) Len() int { return t.count }

// Stats returns accumulated activity counters.
func (t *Unbounded[P]) Stats() Stats { return t.stats }

// ResetStats zeroes the accumulated counters (see Store.ResetStats).
func (t *Unbounded[P]) ResetStats() { t.stats = Stats{} }

// Reset clears contents; counters accumulate. The direct table and
// the overflow index are invalidated by an epoch bump; the claimed
// bitmap clears only the words its summary marks.
func (t *Unbounded[P]) Reset() {
	t.epoch++
	if t.epoch == 0 { // uint32 wraparound: stale stamps could alias
		for i := range t.direct {
			t.direct[i].stamp = 0
		}
		t.epoch = 1
	}
	t.ovIndex.Reset()
	for si, sw := range t.summary {
		for ; sw != 0; sw &= sw - 1 {
			t.claimed[si*64+bits.TrailingZeros64(sw)] = 0
		}
		t.summary[si] = 0
	}
	t.backup = t.backup[:1]
	t.ovEntries = t.ovEntries[:0]
	t.count = 0
}

// Insert stores the hypothesis, recombining on key.
func (t *Unbounded[P]) Insert(key uint64, cost float64, payload P) Outcome {
	t.stats.Inserts++
	t.stats.Cycles++ // direct-mapped probe
	h := hashKey(key)
	di := t.slotOf.of(h)
	slot := &t.direct[di]

	if slot.stamp != t.epoch {
		slot.stamp = t.epoch
		slot.key = key
		slot.cost = cost
		slot.payload = payload
		slot.next = 0
		t.claimed[di/64] |= 1 << (di % 64)
		t.summary[di/(64*64)] |= 1 << (di / 64 % 64)
		t.count++
		t.stats.Stored++
		return Inserted
	}
	if slot.key == key {
		t.stats.Recombines++
		if cost < slot.cost {
			slot.cost = cost
			slot.payload = payload
		}
		return Recombined
	}

	// Collision: walk the backup chain.
	t.stats.Collisions++
	link := &slot.next
	for *link != 0 {
		t.stats.BackupAccesses++
		t.stats.Cycles++ // one cycle per chain hop
		e := &t.backup[*link]
		if e.key == key {
			t.stats.Recombines++
			if cost < e.cost {
				e.cost = cost
				e.payload = payload
			}
			return Recombined
		}
		link = &e.next
	}

	// Append to backup buffer if on-chip space remains.
	if len(t.backup)-1 < t.backupEntries {
		t.backup = append(t.backup, dmEntry[P]{stamp: t.epoch, key: key, cost: cost, payload: payload})
		*link = int32(len(t.backup) - 1)
		t.count++
		t.stats.Stored++
		t.stats.BackupAccesses++
		t.stats.Cycles++
		return Inserted
	}

	// On-chip exhausted: overflow to main memory.
	t.stats.Overflows++
	t.stats.Cycles += int64(t.dramPenalty)
	if pos, ok := t.ovIndex.Put(key); ok {
		e := &t.ovEntries[pos]
		t.stats.Recombines++
		if cost < e.cost {
			e.cost = cost
			e.payload = payload
		}
		return Recombined
	}
	t.ovEntries = append(t.ovEntries, ovEntry[P]{key: key, cost: cost, payload: payload})
	t.count++
	t.stats.Stored++
	return Inserted
}

// Each visits every stored hypothesis (direct, backup, overflow).
// Reading the hypotheses back to seed the next frame is part of the
// accelerator's work: one cycle per on-chip entry and a main-memory
// round trip per overflow entry — the paper's "overflows have a huge
// impact" cost, paid again on the way out.
//
// Direct-mapped slots are visited in ascending index order (the
// hardware's table scan); walking the claimed bitmap through its
// summary reproduces that order reading only the nonzero words.
func (t *Unbounded[P]) Each(fn func(key uint64, cost float64, payload P)) {
	for si, sw := range t.summary {
		for ; sw != 0; sw &= sw - 1 {
			wi := si*64 + bits.TrailingZeros64(sw)
			for word := t.claimed[wi]; word != 0; word &= word - 1 {
				e := &t.direct[wi*64+bits.TrailingZeros64(word)]
				t.stats.Cycles++
				fn(e.key, e.cost, e.payload)
			}
		}
	}
	for i := 1; i < len(t.backup); i++ {
		t.stats.Cycles++
		fn(t.backup[i].key, t.backup[i].cost, t.backup[i].payload)
	}
	for i := range t.ovEntries {
		e := &t.ovEntries[i]
		t.stats.Cycles += int64(t.dramPenalty)
		t.stats.Overflows++
		fn(e.key, e.cost, e.payload)
	}
}
