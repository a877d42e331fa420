package decoder

import "repro/internal/core"

// tokenMap is the live-hypothesis container: state → best token, with
// iteration in insertion order rather than Go's randomized map order.
// Determinism is the point — the iteration order fixes the order
// hypotheses are expanded into the store and the probe, so decoding
// the same scores twice replays the identical access stream (store
// collision/overflow counters, modelled cycles, cache behaviour). The
// engine's parallel-equals-serial guarantee rests on this.
//
// live holds the (state, token) pairs in insertion order, and idx maps
// a state to its position there. reset is an epoch bump and a
// truncation — no clearing, no allocation — so a pooled Session reuses
// its two maps across frames and utterances. idx is sized by the live
// set, not the graph, so eager graphs, lazy graphs and the HeapAlloc
// reference path (a fresh map per frame) share this one map. One array
// of pairs rather than two parallel ones keeps claim within the
// inliner's budget on the closure and harvest paths.
type tokenMap struct {
	idx  core.Index
	live []liveToken
}

type liveToken struct {
	tok   *Token
	state int32
}

func newTokenMap(capacity int) *tokenMap {
	return &tokenMap{idx: core.NewIndex(capacity), live: make([]liveToken, 0, capacity)}
}

func (m *tokenMap) len() int { return len(m.live) }

// claim returns s's position and true if s is live. Otherwise it
// enters s at the end of the insertion order with a nil token, which
// the caller fills in, and returns that position and false. A state
// whose token is replaced keeps its position in the iteration order.
func (m *tokenMap) claim(s int32) (i int32, ok bool) {
	if i, ok = m.idx.Put(uint64(s)); !ok {
		m.live = append(m.live, liveToken{state: s})
	}
	return i, ok
}

// reset empties the map, retaining its backing storage.
func (m *tokenMap) reset() {
	m.idx.Reset()
	m.live = m.live[:0]
}

// bytes reports the memory the map retains.
func (m *tokenMap) bytes() int {
	return m.idx.Bytes() + 16*cap(m.live)
}

// clone returns an independent copy (used by Partial, which runs a
// closure on a snapshot without disturbing the live search).
func (m *tokenMap) clone() *tokenMap {
	c := newTokenMap(m.len())
	for _, e := range m.live {
		i, _ := c.claim(e.state)
		c.live[i].tok = e.tok
	}
	return c
}
