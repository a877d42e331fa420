package viterbisim

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// stampCache is the stamp-based LRU model Cache replaced, kept as the
// differential oracle: every way carries the tick of its last touch, a
// miss fills an empty way or evicts the smallest stamp, and line and
// set come from integer division.
type stampCache struct {
	lineSize int64
	sets     int64
	ways     int
	tags     []uint64
	lru      []uint32
	tick     uint32

	Hits, Misses int64
}

func newStampCache(sizeBytes, ways int, lineSize int64) *stampCache {
	sets := int64(sizeBytes) / lineSize / int64(ways)
	if sets < 1 {
		sets = 1
	}
	return &stampCache{
		lineSize: lineSize,
		sets:     sets,
		ways:     ways,
		tags:     make([]uint64, sets*int64(ways)),
		lru:      make([]uint32, sets*int64(ways)),
	}
}

func (c *stampCache) Access(addr int64, bytes int) int {
	if bytes <= 0 {
		return 0
	}
	misses := 0
	for line := addr / c.lineSize; line <= (addr+int64(bytes)-1)/c.lineSize; line++ {
		if !c.touch(line) {
			misses++
		}
	}
	return misses
}

func (c *stampCache) touch(line int64) bool {
	c.tick++
	set := (line % c.sets) * int64(c.ways)
	tag := uint64(line) + 1
	victim := set
	victimLRU := ^uint32(0)
	for w := 0; w < c.ways; w++ {
		i := set + int64(w)
		if c.tags[i] == tag {
			c.lru[i] = c.tick
			c.Hits++
			return true
		}
		if c.tags[i] == 0 {
			victim = i
			victimLRU = 0
		} else if c.lru[i] < victimLRU {
			victim = i
			victimLRU = c.lru[i]
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.tick
	c.Misses++
	return false
}

// cacheGeometries covers the set-index paths (mask and modulo) and the
// associativity edges: one set, one way, two ways, a non-power-of-two
// set count, and the 48-set 8-way arc cache of asr.ScaleSmall.
var cacheGeometries = []struct {
	name      string
	sizeBytes int
	ways      int
	lineSize  int64
}{
	{"1set-4way", 4 * 64, 4, 64},
	{"8set-1way", 8 * 64, 1, 64},
	{"8set-2way", 16 * 64, 2, 64},
	{"3set-2way", 6 * 64, 2, 64},
	{"48set-8way", 24 << 10, 8, 64},
	{"4set-4way-16B", 16 * 16, 4, 16},
}

// FuzzCache drives Cache and the stamp-LRU oracle with the same access
// stream on every geometry and checks that each Access reports the
// same misses and that the hit and miss counters agree throughout.
// Accesses are up to 159 bytes long at arbitrary offsets, so many
// cross one or more line boundaries.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0, 0, 8, 0, 2, 8, 0, 0, 8, 63, 0, 2, 0, 16, 100})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	long := make([]byte, 9000) // a long random stream, so plain go test exercises eviction
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range cacheGeometries {
			c := NewCache(g.name, g.sizeBytes, g.ways, g.lineSize)
			o := newStampCache(g.sizeBytes, g.ways, g.lineSize)
			for i := 0; i+3 <= len(data) && i < 3000; i += 3 {
				addr := int64(binary.LittleEndian.Uint16(data[i:])) * 4
				n := int(data[i+2]) % 160
				got, want := c.Access(addr, n), o.Access(addr, n)
				if got != want || c.Hits != o.Hits || c.Misses != o.Misses {
					t.Fatalf("%s: access %d (addr %d, %d B): misses %d, hits/misses %d/%d; oracle %d, %d/%d",
						g.name, i/3, addr, n, got, c.Hits, c.Misses, want, o.Hits, o.Misses)
				}
			}
		}
	})
}

func TestNewCacheRejectsLineSize(t *testing.T) {
	for _, line := range []int64{0, -64, 48, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("line size %d accepted", line)
				}
			}()
			NewCache("bad", 1<<10, 2, line)
		}()
	}
}
