package core

// Index maps each key to its insertion rank since the last Reset, which
// is its position in the caller's insertion-ordered array: the index of
// a set rebuilt every frame. The decoder's token map (graph state → its
// token) and Unbounded's DRAM overflow (key → its overflow entry) share
// it.
//
// It is open-addressed with linear probing, power-of-two sized and
// kept at most half full. A slot is live iff its stamp equals the
// epoch, so Reset is an epoch bump that clears nothing. It grows by
// doubling and rehashing its own live slots, so its size follows the
// largest set it has held, not the key space, and once it has held
// that set it never allocates again.
type Index struct {
	slots []indexSlot
	shift uint   // 64 - log2(len(slots)): a key's home slot is its hash's top bits
	epoch uint32 // slots[i] is live iff slots[i].stamp == epoch
	n     int    // live keys
}

type indexSlot struct {
	key   uint64
	stamp uint32
	pos   int32
}

// NewIndex returns an empty index with room for n keys before it
// first grows.
func NewIndex(n int) Index {
	x := Index{epoch: 1}
	x.alloc(n)
	return x
}

// alloc replaces the slots with an empty table of the smallest power
// of two, at least 16, that n keys fill at most half.
func (x *Index) alloc(n int) {
	size, shift := 16, uint(60)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	x.slots, x.shift = make([]indexSlot, size), shift
}

// find returns key's slot, or the empty slot where it belongs. The
// home slot is a Fibonacci hash: one multiply, whose top bits spread
// consecutive keys (the decoder's state ids) over the table.
func (x *Index) find(key uint64) *indexSlot {
	mask := uint64(len(x.slots) - 1)
	for i := key * 0x9e3779b97f4a7c15 >> x.shift; ; i = (i + 1) & mask {
		sl := &x.slots[i]
		if sl.stamp != x.epoch || sl.key == key {
			return sl
		}
	}
}

// Put returns key's position and true if key is live. Otherwise it
// enters key at the next position, the count of live keys, and returns
// that and false.
func (x *Index) Put(key uint64) (int32, bool) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.alloc(len(old))
		for _, sl := range old {
			if sl.stamp == x.epoch {
				*x.find(sl.key) = sl
			}
		}
	}
	sl := x.find(key)
	if sl.stamp == x.epoch {
		return sl.pos, true
	}
	*sl = indexSlot{key: key, stamp: x.epoch, pos: int32(x.n)}
	x.n++
	return sl.pos, false
}

// Reset empties the index by an epoch bump; only the uint32
// wraparound, once in 2³² resets, clears the stamps.
func (x *Index) Reset() {
	x.n = 0
	x.epoch++
	if x.epoch == 0 { // stale stamps could alias
		clear(x.slots)
		x.epoch = 1
	}
}

// Bytes reports the memory the table holds.
func (x *Index) Bytes() int { return 16 * len(x.slots) }
