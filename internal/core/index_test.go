package core

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// indexSeeds are FuzzIndex's seed inputs. The first fills one epoch
// with 40 keys (16 → 32 → 64 → 128 slots), resets through the epoch
// wraparound with those stale slots in place, and fills again.
func indexSeeds() [][]byte {
	grow := []byte{3, 0}
	for k := range 40 {
		grow = append(grow, 2, byte(k)) // put
	}
	for range 6 {
		grow = append(grow, 0, 0) // reset
		for k := range 20 {
			grow = append(grow, 3, byte(7*k), 1, byte(k)) // put, lookup
		}
	}
	seeds := [][]byte{grow, {}, {0, 0, 2, 1, 2, 1, 1, 1, 0, 0, 1, 1}}
	rng := rand.New(rand.NewSource(2))
	for range 4 {
		long := make([]byte, 1200)
		rng.Read(long)
		seeds = append(seeds, long)
	}
	return seeds
}

// FuzzIndex drives Index against a Go map with the same Put, lookup
// and Reset sequence. Each op is two bytes: the op and a key from a range
// of 64 (times 2³³ when the op's top bit is set, so keys differ in
// their high bits too), small enough that home slots collide and large
// enough that one epoch can grow the index from 16 to 128 slots. The
// first Reset jumps the epoch to within four of MaxUint32, as 2³²
// resets without a Put would, so later resets wrap it around while
// slots stamped before the jump are still in the table.
func FuzzIndex(f *testing.F) {
	for _, s := range indexSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkIndex(t, data) })
}

// TestIndexSeedsGrowAndWrap pins that FuzzIndex's seeds, and so every
// plain go test run, reach what the target exists to check.
func TestIndexSeedsGrowAndWrap(t *testing.T) {
	growths, wrapped := checkIndex(t, indexSeeds()[0])
	if growths < 2 || !wrapped {
		t.Fatalf("first seed grew the index %d times, wrapped %v; want >= 2 and true", growths, wrapped)
	}
}

// checkIndex runs one FuzzIndex input and reports how many times the
// index grew and whether its epoch wrapped around.
func checkIndex(t *testing.T, data []byte) (growths int, wrapped bool) {
	if len(data) < 2 {
		return 0, false
	}
	x := NewIndex(int(data[1] % 40))
	jump := math.MaxUint32 - uint32(data[0]%4)
	want := map[uint64]int32{}
	// check compares the live slots with the oracle, key for key.
	check := func(when string) {
		n := len(x.slots)
		if n < 16 || n&(n-1) != 0 || 2*x.n > n || x.shift != uint(64-bits.TrailingZeros(uint(n))) {
			t.Fatalf("%s: %d slots, shift %d, for %d keys", when, n, x.shift, x.n)
		}
		live := 0
		for _, sl := range x.slots {
			if sl.stamp != x.epoch {
				continue
			}
			live++
			if wpos, ok := want[sl.key]; !ok || sl.pos != wpos {
				t.Fatalf("%s: key %d live at %d; oracle %d, %v", when, sl.key, sl.pos, wpos, ok)
			}
		}
		if live != len(want) || x.n != len(want) {
			t.Fatalf("%s: %d live slots, count %d; oracle %d", when, live, x.n, len(want))
		}
	}
	for i := 2; i+2 <= len(data) && i < 2400; i += 2 {
		op, key := data[i], uint64(data[i+1]%64)
		if op&0x80 != 0 {
			key <<= 33
		}
		switch op % 8 {
		case 0:
			check("before reset")
			before := x.epoch
			x.Reset()
			if jump != 0 {
				x.epoch, jump = jump, 0
			} else if x.epoch < before {
				wrapped = true
			}
			clear(want)
		case 1: // a lookup that enters nothing
			sl := x.find(key)
			ok := sl.stamp == x.epoch
			if wpos, wok := want[key]; ok != wok || ok && sl.pos != wpos {
				t.Fatalf("op %d: find(%d) = %d, %v; oracle %d, %v", i, key, sl.pos, ok, wpos, wok)
			}
		default:
			slots := len(x.slots)
			next := int32(len(want))
			pos, ok := x.Put(key)
			wpos, wok := want[key]
			if !wok {
				wpos = next
				want[key] = next
			}
			if ok != wok || pos != wpos {
				t.Fatalf("op %d: Put(%d) = %d, %v; oracle %d, %v", i, key, pos, ok, wpos, wok)
			}
			if len(x.slots) > slots {
				growths++
			}
		}
	}
	check("end")
	return growths, wrapped
}
