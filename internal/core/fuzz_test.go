package core

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// entry is one hypothesis as a store's Each reads it out.
type entry struct {
	key     uint64
	cost    float64
	payload int
}

type eacher interface {
	Each(func(key uint64, cost float64, payload int))
}

func readout(st eacher) []entry {
	var out []entry
	st.Each(func(k uint64, c float64, p int) { out = append(out, entry{k, c, p}) })
	return out
}

func sameReadout(t *testing.T, when string, got, want []entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: Each visited %d entries, reference %d\n got %v\nwant %v", when, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Each entry %d = %+v, reference %+v", when, i, got[i], want[i])
		}
	}
}

// fuzzSeeds adds the shared seed corpus: short hand-written streams and
// long random ones on several geometries, so a plain go test run
// already reaches full sets, ties, backup chains and overflow.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	rng := rand.New(rand.NewSource(1))
	for range 6 {
		long := make([]byte, 1800)
		rng.Read(long)
		f.Add(long)
	}
}

// FuzzSetAssocInsert drives the N-best table and its reference copy
// (refSetAssoc) with the same insert stream on a geometry taken from
// the input: 1–4 sets, 1–9 ways, and the single-cycle or three-cycle
// replacement. Every Insert must return the reference's Outcome and
// leave the same Len and Stats; at every frame boundary and at the end
// the Each sequences must match entry for entry. The structural
// invariants are checked too: the per-set Max-Heap property, capacity
// bounds, and every stored key read out exactly once per frame.
func FuzzSetAssocInsert(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sets, ways := 1+int(data[0]%4), 1+int(data[1]%9)
		tab, ref := NewSetAssoc[int](sets, ways), newRefSetAssoc[int](sets, ways)
		if data[0]&0x80 != 0 {
			tab.SetEvictionCycles(3)
			ref.setEvictionCycles(3)
		}
		frame := func(when string) {
			got := readout(tab)
			sameReadout(t, when, got, readout(ref))
			if tab.Stats() != ref.stats {
				t.Fatalf("%s: stats %+v, reference %+v", when, tab.Stats(), ref.stats)
			}
			seen := map[uint64]bool{}
			for _, e := range got {
				if seen[e.key] {
					t.Fatalf("%s: key %d stored twice", when, e.key)
				}
				seen[e.key] = true
			}
			for s := 0; s < tab.Sets(); s++ {
				heap := tab.HeapCosts(s)
				for h := 1; h < len(heap); h++ {
					if heap[(h-1)/2] < heap[h] {
						t.Fatalf("%s: set %d: heap violated: %v", when, s, heap)
					}
				}
			}
		}
		for i := 2; i+3 <= len(data) && i < 1800; i += 3 {
			if data[i+2]%23 == 0 {
				frame("frame boundary")
				tab.Reset()
				ref.Reset()
			}
			key := uint64(data[i] % 32)
			cost := float64(data[i+1] % 64) // few distinct costs: ties are common
			got, want := tab.Insert(key, cost, i), ref.Insert(key, cost, i)
			if got != want {
				t.Fatalf("insert %d (key %d, cost %v): %v, reference %v", i, key, cost, got, want)
			}
			if tab.Len() != ref.count || tab.Stats() != ref.stats {
				t.Fatalf("insert %d: len %d stats %+v, reference %d %+v", i, tab.Len(), tab.Stats(), ref.count, ref.stats)
			}
			if tab.Len() > tab.Capacity() {
				t.Fatalf("capacity exceeded: %d > %d", tab.Len(), tab.Capacity())
			}
		}
		frame("end")
	})
}

// FuzzUnboundedInsert drives the UNFOLD-style store and its reference
// copy (refUnbounded) with the same insert stream on a geometry taken
// from the input: 1–8, 60–139 or 4000–10111 direct slots and 1–4
// backup entries, so collisions, backup chains, overflow and claimed
// bitmaps and summaries of several words are all reached. Outcomes,
// Len and Stats must match after every Insert and the Each sequences
// at every frame boundary and at the end; every frame must also keep
// each key exactly once at its minimum cost.
func FuzzUnboundedInsert(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		direct, backup, keys := 1+int(data[0]%8), 1+int(data[1]%4), uint16(96)
		switch data[0] >> 6 {
		case 2: // a claimed bitmap of two or three words
			direct, keys = 60+int(data[0]%80), 512
		case 3: // a summary of the claimed bitmap of two or three words
			direct, keys = 4000+97*int(data[0]%64), 1<<14
		}
		tab, ref := NewUnbounded[int](direct, backup, 10), newRefUnbounded[int](direct, backup, 10)
		want := map[uint64]float64{}
		frame := func(when string) {
			got := readout(tab)
			sameReadout(t, when, got, readout(ref))
			if tab.Stats() != ref.stats {
				t.Fatalf("%s: stats %+v, reference %+v", when, tab.Stats(), ref.stats)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: stored %d keys, want %d", when, len(got), len(want))
			}
			for _, e := range got {
				if c, ok := want[e.key]; !ok || c != e.cost {
					t.Fatalf("%s: key %d: cost %v, want min %v", when, e.key, e.cost, c)
				}
			}
		}
		for i := 2; i+3 <= len(data) && i < 1800; i += 3 {
			if data[i+2]%23 == 0 {
				frame("frame boundary")
				tab.Reset()
				ref.Reset()
				clear(want)
			}
			key := uint64(binary.LittleEndian.Uint16(data[i:]) % keys)
			cost := float64(data[i+1])
			got, exp := tab.Insert(key, cost, i), ref.Insert(key, cost, i)
			if got != exp {
				t.Fatalf("insert %d (key %d, cost %v): %v, reference %v", i, key, cost, got, exp)
			}
			if tab.Len() != ref.count || tab.Stats() != ref.stats {
				t.Fatalf("insert %d: len %d stats %+v, reference %d %+v", i, tab.Len(), tab.Stats(), ref.count, ref.stats)
			}
			if old, ok := want[key]; !ok || cost < old {
				want[key] = cost
			}
		}
		frame("end")
	})
}
