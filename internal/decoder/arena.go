package decoder

import "unsafe"

// arena is a chunked bump allocator for the decode hot path. Tokens
// and WordLinks are tiny, allocated at arc rate, and have strictly
// frame- or utterance-scoped lifetimes, so a general-purpose heap (and
// the GC pressure it brings) is wasted on them; the arena hands out
// pointers into reusable fixed-size chunks and reclaims everything at
// once with rewind. Chunks are retained across rewinds, so a warmed
// arena allocates nothing at steady state.
//
// Lifetimes in the session (see DESIGN.md "Memory ownership &
// pooling"):
//
//   - Tokens created while processing frame t are referenced until the
//     end of frame t+1 (frame t+1's closure and expansion read them
//     from the live map). The session therefore keeps two token
//     arenas and allocates frame t from arena t%2, rewinding it at the
//     start of frame t — which reclaims exactly the tokens of frame
//     t-2, all dead by then.
//   - WordLinks chain across frames (the backtrace survives the whole
//     utterance), so they live in one arena rewound only on Restart.
type arena[T any] struct {
	chunks [][]T
	ci     int // chunk currently being filled
	n      int // slots used in chunks[ci]
}

// arenaChunk is the slots-per-chunk grain. Big enough that chunk hops
// are rare at realistic frame populations, small enough that an idle
// session does not pin much memory.
const arenaChunk = 4096

// alloc returns a pointer to the next free slot. The slot is NOT
// zeroed — callers must assign every field (Token and WordLink have
// two each).
func (a *arena[T]) alloc() *T {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	c := a.chunks[a.ci]
	p := &c[a.n]
	a.n++
	if a.n == len(c) {
		a.ci++
		a.n = 0
	}
	return p
}

// freeLast returns p to the arena if and only if it was the most
// recent alloc — the expansion loop uses it to reclaim a candidate
// the store rejected before anything could retain it. Any other
// pointer is ignored (reclaimed by the next rewind instead).
func (a *arena[T]) freeLast(p *T) {
	ci, n := a.ci, a.n
	if n == 0 {
		if ci == 0 {
			return // nothing allocated
		}
		ci--
		n = len(a.chunks[ci])
	}
	if &a.chunks[ci][n-1] == p {
		a.ci, a.n = ci, n-1
	}
}

// live reports the number of slots currently handed out.
func (a *arena[T]) live() int {
	return a.ci*arenaChunk + a.n
}

// slots reports the total capacity in slots (what a rewind retains).
func (a *arena[T]) slots() int {
	return len(a.chunks) * arenaChunk
}

// rewind reclaims every outstanding slot in O(1), keeping the chunks
// for reuse, and reports the number of bytes recycled. Callers must
// guarantee no live pointer into the arena survives the rewind.
func (a *arena[T]) rewind() int64 {
	var zero T
	recycled := int64(a.live()) * int64(unsafe.Sizeof(zero))
	a.ci, a.n = 0, 0
	return recycled
}

// bytes reports the resident size of the arena's chunks.
func (a *arena[T]) bytes() int64 {
	var zero T
	return int64(a.slots()) * int64(unsafe.Sizeof(zero))
}

// ArenaStats describes the pooled allocation state of a Session; the
// arena-reuse tests pin that a second utterance on a warmed session
// does not grow it.
type ArenaStats struct {
	// TokenSlots is the total token capacity across both frame-parity
	// arenas.
	TokenSlots int
	// WordSlots is the WordLink capacity of the utterance arena.
	WordSlots int
	// Bytes is the resident size of all arena chunks.
	Bytes int64
	// MapBytes is the resident size of the two token maps, which
	// follows the largest live set the session has held.
	MapBytes int
}
