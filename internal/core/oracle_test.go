package core

import (
	"fmt"
	"slices"
)

// The two reference stores below are SetAssoc and Unbounded as they
// stood before the software changes that keep their modelled
// behaviour: SetAssoc with valid bits and a Maximum-path vector
// rebuilt after every push and recombination, Unbounded with a Go map
// as its overflow index and a sorted occupancy list. They are the
// differential oracles of FuzzSetAssocInsert and FuzzUnboundedInsert:
// every Outcome, every Each sequence and every Stats must agree.

// refSetAssoc is the reference N-best table.
type refSetAssoc[P any] struct {
	sets, ways int

	// flat entry storage: set s occupies [s*ways, (s+1)*ways)
	keys    []uint64
	costs   []float64
	payload []P
	valid   []bool

	// Per-set Max-Heap metadata, mirroring the hardware of Figure 8.
	//
	// heapIdx[s*ways+h] is the entry index (way) stored at heap node h.
	//
	// heapPos is its reverse index vector (way → heap node): for every
	// set s and every heap node h < heapSize[s],
	//
	//	heapPos[s*ways + int(heapIdx[s*ways+h])] == h.
	//
	// The hardware keeps this vector beside the heap so a
	// recombination can locate its entry's heap node in a single cycle
	// instead of scanning the heap; every operation that moves a way
	// between heap nodes (heapSwap, heapPush, replaceMax) updates both
	// vectors together to preserve the invariant.
	//
	// maxPath[s*depth+l] is the heap-node index at depth l+1 of set
	// s's Maximum-path: the nodes visited by repeatedly following the
	// max-cost child downward from the root. The root itself (node 0)
	// is always on the path and therefore not stored; a negative entry
	// marks levels below the bottom of the current heap.
	heapIdx  []uint8
	heapPos  []uint8
	heapSize []int
	maxPath  []int8
	depth    int

	// pathBuf is replaceMax's reusable Maximum-path gather scratch
	// (root + up to depth stored nodes); per-table so the eviction
	// path never allocates.
	pathBuf []int

	count int
	stats Stats

	// evictionCycles models the replacement latency: 1 for the paper's
	// Max-Heap + Maximum-path design (all comparisons in parallel), 3
	// for the naive tree-of-comparators alternative the paper rejects
	// (2.82 ns critical path = 3 cycles at the 1.25 ns UNFOLD clock).
	evictionCycles int64
}

// newRefSetAssoc builds a table with the given number of sets and ways.
// N (the loose hypothesis bound) is sets*ways; the paper's instance is
// 128 sets × 8 ways = 1024.
func newRefSetAssoc[P any](sets, ways int) *refSetAssoc[P] {
	if sets <= 0 || ways <= 0 || ways > 255 {
		panic(fmt.Sprintf("core: invalid table geometry %d sets x %d ways", sets, ways))
	}
	depth := 0
	for (1 << (depth + 1)) <= ways {
		depth++
	}
	t := &refSetAssoc[P]{
		sets: sets, ways: ways, depth: depth,
		keys:     make([]uint64, sets*ways),
		costs:    make([]float64, sets*ways),
		payload:  make([]P, sets*ways),
		valid:    make([]bool, sets*ways),
		heapIdx:  make([]uint8, sets*ways),
		heapPos:  make([]uint8, sets*ways),
		heapSize: make([]int, sets),
		maxPath:  make([]int8, sets*max(depth, 1)),
		pathBuf:  make([]int, 0, depth+1),

		evictionCycles: 1,
	}
	return t
}

// setEvictionCycles overrides the modelled replacement latency; used
// by the heap-vs-comparator-tree ablation. The design point of the
// paper is 1 (single cycle); a three-level comparator tree costs 3.
func (t *refSetAssoc[P]) setEvictionCycles(c int64) {
	if c < 1 {
		c = 1
	}
	t.evictionCycles = c
}

// Reset clears the table; statistics accumulate across frames.
func (t *refSetAssoc[P]) Reset() {
	for i := range t.valid {
		t.valid[i] = false
	}
	for s := range t.heapSize {
		t.heapSize[s] = 0
	}
	t.count = 0
}

func (t *refSetAssoc[P]) setOf(key uint64) int {
	return int(hashKey(key) % uint64(t.sets))
}

// Insert offers a hypothesis to the table. Every access is modelled as
// a single cycle: lookup, free-slot insert and Max-Heap replacement all
// complete in one cycle in the synthesized design (1.21 ns < the 1.25 ns
// UNFOLD clock).
func (t *refSetAssoc[P]) Insert(key uint64, cost float64, payload P) Outcome {
	t.stats.Inserts++
	t.stats.Cycles++ // single-cycle guarantee of the design
	s := t.setOf(key)
	base := s * t.ways

	// Associative key match (parallel comparators in hardware).
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.keys[i] == key {
			t.stats.Recombines++
			if cost < t.costs[i] {
				t.costs[i] = cost
				t.payload[i] = payload
				t.siftDown(s, t.heapPosOf(s, uint8(w)))
				t.rebuildMaxPath(s)
			}
			return Recombined
		}
	}

	// Free way?
	if t.heapSize[s] < t.ways {
		for w := 0; w < t.ways; w++ {
			i := base + w
			if !t.valid[i] {
				t.valid[i] = true
				t.keys[i] = key
				t.costs[i] = cost
				t.payload[i] = payload
				t.heapPush(s, uint8(w))
				t.count++
				t.stats.Stored++
				return Inserted
			}
		}
		panic("core: heapSize disagrees with valid bits")
	}

	// Full set: compare with the root (set maximum).
	rootWay := t.heapIdx[base]
	if cost >= t.costs[base+int(rootWay)] {
		t.stats.Rejections++
		return Rejected
	}
	t.replaceMax(s, key, cost, payload)
	t.stats.Evictions++
	t.stats.Cycles += t.evictionCycles - 1 // extra latency beyond the base access
	return Evicted
}

// Each visits every stored hypothesis. Reading the surviving
// hypotheses back for the next frame costs one cycle per entry, all
// on chip — the table is small enough that there is no DRAM tail.
func (t *refSetAssoc[P]) Each(fn func(key uint64, cost float64, payload P)) {
	for i, ok := range t.valid {
		if ok {
			t.stats.Cycles++
			fn(t.keys[i], t.costs[i], t.payload[i])
		}
	}
}

// --- Max-Heap machinery -------------------------------------------------

// heapCost returns the cost at heap node h of set s.
func (t *refSetAssoc[P]) heapCost(s, h int) float64 {
	return t.costs[s*t.ways+int(t.heapIdx[s*t.ways+h])]
}

// heapPosOf returns the heap node currently holding way w — a single
// read of the reverse index vector, like the hardware.
func (t *refSetAssoc[P]) heapPosOf(s int, w uint8) int {
	return int(t.heapPos[s*t.ways+int(w)])
}

func (t *refSetAssoc[P]) heapSwap(s, a, b int) {
	base := s * t.ways
	t.heapIdx[base+a], t.heapIdx[base+b] = t.heapIdx[base+b], t.heapIdx[base+a]
	t.heapPos[base+int(t.heapIdx[base+a])] = uint8(a)
	t.heapPos[base+int(t.heapIdx[base+b])] = uint8(b)
}

// heapPush adds way w to set s's heap and restores the heap property.
func (t *refSetAssoc[P]) heapPush(s int, w uint8) {
	h := t.heapSize[s]
	t.heapIdx[s*t.ways+h] = w
	t.heapPos[s*t.ways+int(w)] = uint8(h)
	t.heapSize[s]++
	for h > 0 {
		parent := (h - 1) / 2
		if t.heapCost(s, h) <= t.heapCost(s, parent) {
			break
		}
		t.heapSwap(s, h, parent)
		h = parent
	}
	t.rebuildMaxPath(s)
}

// siftDown restores the max-heap property downward from node h (used
// after a recombination decreased a cost).
func (t *refSetAssoc[P]) siftDown(s, h int) {
	n := t.heapSize[s]
	for {
		l, r := 2*h+1, 2*h+2
		largest := h
		if l < n && t.heapCost(s, l) > t.heapCost(s, largest) {
			largest = l
		}
		if r < n && t.heapCost(s, r) > t.heapCost(s, largest) {
			largest = r
		}
		if largest == h {
			return
		}
		t.heapSwap(s, h, largest)
		h = largest
	}
}

// rebuildMaxPath recomputes the Maximum-path metadata of set s: the
// heap nodes visited following the maximum-cost child from the root.
// The hardware updates this vector on every insertion (Section III-B);
// rebuilding is its software equivalent.
func (t *refSetAssoc[P]) rebuildMaxPath(s int) {
	n := t.heapSize[s]
	h := 0
	for l := 0; l < t.depth; l++ {
		left, right := 2*h+1, 2*h+2
		next := -1
		if left < n {
			next = left
		}
		if right < n && t.heapCost(s, right) > t.heapCost(s, left) {
			next = right
		}
		t.maxPath[s*max(t.depth, 1)+l] = int8(next)
		if next < 0 {
			break
		}
		h = next
	}
}

// replaceMax implements the single-cycle replacement of Figure 8: the
// new hypothesis' cost is compared in parallel against every node on
// the Maximum-path; nodes costlier than the newcomer shift up one
// level, and the newcomer takes the deepest vacated node. Only the
// 3-bit indices in the heap index vector move — entry data stays put.
func (t *refSetAssoc[P]) replaceMax(s int, key uint64, cost float64, payload P) {
	base := s * t.ways
	victimWay := t.heapIdx[base] // root holds the set maximum

	// Gather the maximum path: root, then stored path nodes. The
	// per-table scratch keeps this off the allocator — replaceMax runs
	// once per eviction, i.e. at hypothesis-explosion rate.
	path := append(t.pathBuf[:0], 0)
	for l := 0; l < t.depth; l++ {
		next := int(t.maxPath[s*max(t.depth, 1)+l])
		if next < 0 {
			break
		}
		path = append(path, next)
	}

	// Parallel comparisons: find how deep the newcomer sinks. Costs
	// along the path are non-increasing, so the comparison outcomes
	// form a prefix of "shift up".
	place := 0
	for i := 1; i < len(path); i++ {
		if t.heapCost(s, path[i]) > cost {
			place = i
		} else {
			break
		}
	}

	// Shift path nodes up one level and drop the newcomer in, keeping
	// the reverse index vector in step with every moved way.
	for i := 1; i <= place; i++ {
		w := t.heapIdx[base+path[i]]
		t.heapIdx[base+path[i-1]] = w
		t.heapPos[base+int(w)] = uint8(path[i-1])
	}
	t.heapIdx[base+path[place]] = victimWay
	t.heapPos[base+int(victimWay)] = uint8(path[place])

	// The victim's way now stores the newcomer.
	i := base + int(victimWay)
	t.keys[i] = key
	t.costs[i] = cost
	t.payload[i] = payload

	t.rebuildMaxPath(s)
}

// refUnbounded is the reference UNFOLD-style table.
type refUnbounded[P any] struct {
	// geometry
	directEntries int
	backupEntries int
	dramPenalty   int

	direct   []refDMEntry[P]
	epoch    uint32          // direct[i] live iff direct[i].stamp == epoch
	occupied []int32         // direct indices claimed this epoch (unsorted)
	backup   []refDMEntry[P] // chained; index 0 unused (0 = nil link)

	ovIndex   map[uint64]int32 // key → ovEntries position
	ovEntries []refOVEntry[P]  // overflow in insertion order

	count int
	stats Stats
}

type refDMEntry[P any] struct {
	stamp   uint32
	key     uint64
	cost    float64
	payload P
	next    int32 // backup-buffer chain link (0 = none)
}

type refOVEntry[P any] struct {
	key     uint64
	cost    float64
	payload P
}

// newRefUnbounded builds the UNFOLD-style table. Pass zeros for defaults.
func newRefUnbounded[P any](directEntries, backupEntries, dramPenalty int) *refUnbounded[P] {
	if directEntries <= 0 {
		directEntries = DefaultDirectEntries
	}
	if backupEntries <= 0 {
		backupEntries = DefaultBackupEntries
	}
	if dramPenalty <= 0 {
		dramPenalty = DefaultDRAMPenalty
	}
	return &refUnbounded[P]{
		directEntries: directEntries,
		backupEntries: backupEntries,
		dramPenalty:   dramPenalty,
		direct:        make([]refDMEntry[P], directEntries),
		epoch:         1,
		backup:        make([]refDMEntry[P], 1, 1+backupEntries),
		ovIndex:       map[uint64]int32{},
	}
}

// Reset clears contents; counters accumulate. The direct table is
// invalidated by an epoch bump — O(live entries), not O(table size).
func (t *refUnbounded[P]) Reset() {
	t.epoch++
	if t.epoch == 0 { // uint32 wraparound: stale stamps could alias
		for i := range t.direct {
			t.direct[i].stamp = 0
		}
		t.epoch = 1
	}
	t.occupied = t.occupied[:0]
	t.backup = t.backup[:1]
	clear(t.ovIndex)
	t.ovEntries = t.ovEntries[:0]
	t.count = 0
}

// Insert stores the hypothesis, recombining on key.
func (t *refUnbounded[P]) Insert(key uint64, cost float64, payload P) Outcome {
	t.stats.Inserts++
	t.stats.Cycles++ // direct-mapped probe
	di := int32(hashKey(key) % uint64(t.directEntries))
	slot := &t.direct[di]

	if slot.stamp != t.epoch {
		slot.stamp = t.epoch
		slot.key = key
		slot.cost = cost
		slot.payload = payload
		slot.next = 0
		t.occupied = append(t.occupied, di)
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
		t.backup = append(t.backup, refDMEntry[P]{stamp: t.epoch, key: key, cost: cost, payload: payload})
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
	if i, ok := t.ovIndex[key]; ok {
		e := &t.ovEntries[i]
		t.stats.Recombines++
		if cost < e.cost {
			e.cost = cost
			e.payload = payload
		}
		return Recombined
	}
	t.ovIndex[key] = int32(len(t.ovEntries))
	t.ovEntries = append(t.ovEntries, refOVEntry[P]{key: key, cost: cost, payload: payload})
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
// hardware's table scan); sorting the occupancy list reproduces that
// order in O(live · log live) instead of touching all 32K slots.
func (t *refUnbounded[P]) Each(fn func(key uint64, cost float64, payload P)) {
	slices.Sort(t.occupied)
	for _, di := range t.occupied {
		e := &t.direct[di]
		t.stats.Cycles++
		fn(e.key, e.cost, e.payload)
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
