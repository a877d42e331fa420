package viterbisim

import "fmt"

// Cache is a set-associative LRU cache simulator operating on byte
// addresses. It models the State, Arc and Word-Lattice caches of the
// UNFOLD accelerator (Table III).
//
// Each set keeps its tags in recency order, most recent first: a hit
// moves its tag to way 0, and a miss shifts the set down one way and
// writes the new tag at way 0, so the last way holds the least
// recently used line (or an empty way while the set is filling) and is
// the one evicted. That is exact LRU with no per-line stamps to
// compare or to wrap.
type Cache struct {
	Name      string
	lineShift uint  // log2 of the line size
	sets      int64 // number of sets
	setMask   int64 // sets-1 when sets is a power of two, else -1
	ways      int

	tags []uint64 // sets*ways, each set most recent first; 0 = empty, else line+1

	Hits, Misses int64
}

// NewCache builds a cache of the given total size. lineSize must be a
// power of two; NewCache panics otherwise.
func NewCache(name string, sizeBytes, ways int, lineSize int64) *Cache {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("viterbisim: %s cache line size %d is not a power of two", name, lineSize))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("viterbisim: %s cache has %d ways", name, ways))
	}
	shift := uint(0)
	for int64(1)<<shift < lineSize {
		shift++
	}
	lines := int64(sizeBytes) / lineSize
	sets := lines / int64(ways)
	if sets < 1 {
		sets = 1
	}
	mask := int64(-1)
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	return &Cache{
		Name:      name,
		lineShift: shift,
		sets:      sets,
		setMask:   mask,
		ways:      ways,
		tags:      make([]uint64, sets*int64(ways)),
	}
}

// Access touches [addr, addr+bytes) and returns the number of line
// misses incurred. Addresses are non-negative byte offsets.
func (c *Cache) Access(addr int64, bytes int) int {
	if bytes <= 0 {
		return 0
	}
	first := addr >> c.lineShift
	last := (addr + int64(bytes) - 1) >> c.lineShift
	misses := 0
	for line := first; line <= last; line++ {
		set := line & c.setMask
		if c.setMask < 0 {
			set = line % c.sets // e.g. a 48-set cache
		}
		tags := c.tags[int(set)*c.ways:][:c.ways]
		tag := uint64(line) + 1
		if tags[0] == tag {
			continue // hit on the most recent way: order unchanged
		}
		w := 1
		for w < len(tags) && tags[w] != tag {
			w++
		}
		if w == len(tags) {
			misses++
			w-- // evict the least recently used way
		}
		for ; w > 0; w-- {
			tags[w] = tags[w-1]
		}
		tags[0] = tag
	}
	c.Hits += last - first + 1 - int64(misses)
	c.Misses += int64(misses)
	return misses
}

// Accesses reports the total number of line accesses.
func (c *Cache) Accesses() int64 { return c.Hits + c.Misses }

// MissRate reports the fraction of accesses that missed.
func (c *Cache) MissRate() float64 {
	if c.Accesses() == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses())
}
