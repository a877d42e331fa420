package core

import "fmt"

// SetAssoc is the paper's N-best hash table: Sets × Ways entries, a
// Max-Heap per set ordered by cost, and a Maximum-path index vector
// that lets a replacement complete with all comparisons in parallel —
// the single-cycle design of Section III-B.
//
// Insert policy per set:
//   - key already present  → recombine (keep min cost)
//   - free way             → store
//   - full, cost >= set max → reject
//   - full, cost <  set max → evict the max along the Maximum-path
type SetAssoc[P any] struct {
	sets, ways int
	setOfHash  reducer // hash → set

	// flat entry storage: set s occupies [s*ways, (s+1)*ways). Ways
	// fill as a prefix — a free way is always way heapSize[s], and an
	// eviction replaces in place — so way w of set s holds a
	// hypothesis exactly when w < heapSize[s], and no valid bits are
	// kept.
	keys    []uint64
	costs   []float64
	payload []P

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
	// The Maximum-path — the heap nodes visited by repeatedly
	// following the max-cost child downward from the root — is a
	// vector the hardware updates on every insertion. It is read only
	// by a replacement, so software walks it from the current heap at
	// that point (replaceMax, via maxChild) and stores no copy.
	heapIdx  []uint8
	heapPos  []uint8
	heapSize []int
	depth    int // Maximum-path levels below the root: floor(log2(ways))

	count int
	stats Stats

	// evictionCycles models the replacement latency: 1 for the paper's
	// Max-Heap + Maximum-path design (all comparisons in parallel), 3
	// for the naive tree-of-comparators alternative the paper rejects
	// (2.82 ns critical path = 3 cycles at the 1.25 ns UNFOLD clock).
	evictionCycles int64
}

// NewSetAssoc builds a table with the given number of sets and ways.
// N (the loose hypothesis bound) is sets*ways; the paper's instance is
// 128 sets × 8 ways = 1024.
func NewSetAssoc[P any](sets, ways int) *SetAssoc[P] {
	if sets <= 0 || ways <= 0 || ways > 255 {
		panic(fmt.Sprintf("core: invalid table geometry %d sets x %d ways", sets, ways))
	}
	depth := 0
	for (1 << (depth + 1)) <= ways {
		depth++
	}
	t := &SetAssoc[P]{
		sets: sets, ways: ways, depth: depth,
		setOfHash: newReducer(sets),
		keys:      make([]uint64, sets*ways),
		costs:     make([]float64, sets*ways),
		payload:   make([]P, sets*ways),
		heapIdx:   make([]uint8, sets*ways),
		heapPos:   make([]uint8, sets*ways),
		heapSize:  make([]int, sets),

		evictionCycles: 1,
	}
	return t
}

// SetEvictionCycles overrides the modelled replacement latency; used
// by the heap-vs-comparator-tree ablation. The design point of the
// paper is 1 (single cycle); a three-level comparator tree costs 3.
func (t *SetAssoc[P]) SetEvictionCycles(c int64) {
	if c < 1 {
		c = 1
	}
	t.evictionCycles = c
}

// Sets reports the number of sets.
func (t *SetAssoc[P]) Sets() int { return t.sets }

// Ways reports the associativity.
func (t *SetAssoc[P]) Ways() int { return t.ways }

// Capacity reports sets*ways, the loose N bound.
func (t *SetAssoc[P]) Capacity() int { return t.sets * t.ways }

// Len reports the number of stored hypotheses.
func (t *SetAssoc[P]) Len() int { return t.count }

// Stats returns the accumulated activity counters.
func (t *SetAssoc[P]) Stats() Stats { return t.stats }

// ResetStats zeroes the accumulated counters (see Store.ResetStats).
func (t *SetAssoc[P]) ResetStats() { t.stats = Stats{} }

// Reset clears the table; statistics accumulate across frames. Each
// set's ways are a prefix of length heapSize, so emptying the heaps
// empties the table.
func (t *SetAssoc[P]) Reset() {
	clear(t.heapSize)
	t.count = 0
}

func (t *SetAssoc[P]) setOf(key uint64) int {
	return int(t.setOfHash.of(hashKey(key)))
}

// Insert offers a hypothesis to the table. Every access is modelled as
// a single cycle: lookup, free-slot insert and Max-Heap replacement all
// complete in one cycle in the synthesized design (1.21 ns < the 1.25 ns
// UNFOLD clock).
func (t *SetAssoc[P]) Insert(key uint64, cost float64, payload P) Outcome {
	t.stats.Inserts++
	t.stats.Cycles++ // single-cycle guarantee of the design
	s := t.setOf(key)
	base := s * t.ways
	n := t.heapSize[s]

	// Associative key match (parallel comparators in hardware) over
	// the set's filled ways.
	for w := 0; w < n; w++ {
		i := base + w
		if t.keys[i] == key {
			t.stats.Recombines++
			if cost < t.costs[i] {
				t.costs[i] = cost
				t.payload[i] = payload
				t.siftDown(s, t.heapPosOf(s, uint8(w)))
			}
			return Recombined
		}
	}

	// Free way: the first one past the filled prefix.
	if n < t.ways {
		i := base + n
		t.keys[i] = key
		t.costs[i] = cost
		t.payload[i] = payload
		t.heapPush(s, uint8(n))
		t.count++
		t.stats.Stored++
		return Inserted
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
func (t *SetAssoc[P]) Each(fn func(key uint64, cost float64, payload P)) {
	for s, n := range t.heapSize {
		for i := s * t.ways; i < s*t.ways+n; i++ {
			t.stats.Cycles++
			fn(t.keys[i], t.costs[i], t.payload[i])
		}
	}
}

// SetSnapshot exposes the internal state of one set for tests and the
// Figure 8 worked example: entry costs by way, the Max-Heap index
// vector (way stored at each heap node) and the Maximum-path node ids
// below the root, one per level, -1 for levels below the bottom of the
// heap.
func (t *SetAssoc[P]) SetSnapshot(s int) (costs []float64, valid []bool, heapIdx []uint8, maxPath []int8) {
	base := s * t.ways
	costs = append(costs, t.costs[base:base+t.ways]...)
	for w := 0; w < t.ways; w++ {
		valid = append(valid, w < t.heapSize[s])
	}
	heapIdx = append(heapIdx, t.heapIdx[base:base+t.heapSize[s]]...)
	h := 0
	for l := 0; l < t.depth; l++ {
		if h >= 0 {
			h = t.maxChild(s, h)
		}
		maxPath = append(maxPath, int8(h))
	}
	return costs, valid, heapIdx, maxPath
}

// HeapCosts returns the costs in heap order for set s (root first).
func (t *SetAssoc[P]) HeapCosts(s int) []float64 {
	out := make([]float64, t.heapSize[s])
	for h := range out {
		out[h] = t.heapCost(s, h)
	}
	return out
}

// --- Max-Heap machinery -------------------------------------------------

// heapCost returns the cost at heap node h of set s.
func (t *SetAssoc[P]) heapCost(s, h int) float64 {
	return t.costs[s*t.ways+int(t.heapIdx[s*t.ways+h])]
}

// heapPosOf returns the heap node currently holding way w — a single
// read of the reverse index vector, like the hardware.
func (t *SetAssoc[P]) heapPosOf(s int, w uint8) int {
	return int(t.heapPos[s*t.ways+int(w)])
}

func (t *SetAssoc[P]) heapSwap(s, a, b int) {
	base := s * t.ways
	t.heapIdx[base+a], t.heapIdx[base+b] = t.heapIdx[base+b], t.heapIdx[base+a]
	t.heapPos[base+int(t.heapIdx[base+a])] = uint8(a)
	t.heapPos[base+int(t.heapIdx[base+b])] = uint8(b)
}

// heapPush adds way w to set s's heap and restores the heap property.
func (t *SetAssoc[P]) heapPush(s int, w uint8) {
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
}

// siftDown restores the max-heap property downward from node h (used
// after a recombination decreased a cost).
func (t *SetAssoc[P]) siftDown(s, h int) {
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

// maxChild returns the Maximum-path successor of heap node h in set s:
// its costlier child (the left one on a tie), or -1 if h is a leaf.
func (t *SetAssoc[P]) maxChild(s, h int) int {
	n := t.heapSize[s]
	left, right := 2*h+1, 2*h+2
	if left >= n {
		return -1
	}
	if right < n && t.heapCost(s, right) > t.heapCost(s, left) {
		return right
	}
	return left
}

// replaceMax implements the single-cycle replacement of Figure 8: the
// new hypothesis' cost is compared in parallel against every node on
// the Maximum-path; nodes costlier than the newcomer shift up one
// level, and the newcomer takes the deepest vacated node. Only the
// 3-bit indices in the heap index vector move — entry data stays put.
//
// Costs along the path are non-increasing, so the comparison outcomes
// form a prefix of "shift up", and walking the path from the root
// while the next node is costlier finds the same node the parallel
// comparison does. A shift only rewrites nodes above the one whose
// child is chosen next, so the walk reads the path as it stood before
// the replacement.
func (t *SetAssoc[P]) replaceMax(s int, key uint64, cost float64, payload P) {
	base := s * t.ways
	victimWay := t.heapIdx[base] // root holds the set maximum

	// Shift path nodes up one level and drop the newcomer in, keeping
	// the reverse index vector in step with every moved way.
	h := 0
	for {
		next := t.maxChild(s, h)
		if next < 0 || t.heapCost(s, next) <= cost {
			break
		}
		w := t.heapIdx[base+next]
		t.heapIdx[base+h] = w
		t.heapPos[base+int(w)] = uint8(h)
		h = next
	}
	t.heapIdx[base+h] = victimWay
	t.heapPos[base+int(victimWay)] = uint8(h)

	// The victim's way now stores the newcomer.
	i := base + int(victimWay)
	t.keys[i] = key
	t.costs[i] = cost
	t.payload[i] = payload
}
