package decoder

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/wfst"
)

// Session lifecycle errors. PushFrame reports exactly which contract
// was violated so long-lived callers (the serving layer) can map the
// failure to a protocol error instead of crashing on undefined state.
var (
	// ErrNotStarted is returned when frames are pushed into a Session
	// that did not come from Decoder.Start (e.g. a zero Session).
	ErrNotStarted = errors.New("decoder: session not started (obtain one from Decoder.Start)")
	// ErrFinished is returned when frames are pushed after Finish.
	ErrFinished = errors.New("decoder: PushFrame after Finish")
)

// Session is one in-flight decode: it owns the mutable search state —
// the hypothesis store, the live token maps, the token/word arenas,
// and (via Config.Probe) the accelerator probe — while sharing the
// immutable Decoder and graph. The batch Decode is a thin loop over a
// Session; incremental callers drive one directly with PushFrame.
//
// Goroutine-safety contract (the engine layer relies on this):
//
//   - A Decoder and an eager wfst.FST are read-only after construction
//     and may be shared by any number of concurrent Sessions. A lazy
//     wfst.Lazy graph memoizes arcs internally under its own lock and
//     is likewise safe to share.
//   - A Session, its store, and its probe are owned by one decode and
//     must only be used from a single goroutine at a time.
//
// Running one Session per utterance across a worker pool is the
// intended parallel deployment; see internal/asr's engine. Pool
// workers keep their Session across utterances via Restart, which
// reuses the store, maps, and arenas so steady-state decoding
// allocates nothing (see DESIGN.md "Memory ownership & pooling").
type Session struct {
	d     *Decoder
	cfg   Config
	store core.Store[*Token]
	cur   *tokenMap
	spare *tokenMap // next frame's map: reused when pooled, fresh per frame with HeapAlloc
	res   Result

	// Pooled allocation state (unused when Config.HeapAlloc). tokens
	// holds the two frame-parity arenas; words lives for the whole
	// utterance. queue and costs are the closure / histogram-pruning
	// scratch. harvest is created once so the per-frame store readout
	// does not allocate a closure.
	tokens   [2]arena[Token]
	words    arena[WordLink]
	queue    []int32
	costs    []float64
	harvest  func(key uint64, cost float64, tok *Token)
	recycled int64 // arena bytes reclaimed since the last obs flush

	prevCycles int64
	started    bool
	finished   bool
}

// Start opens a decode session. Frames are fed with PushFrame and the
// final Result is collected with Finish; Restart then recycles the
// session for the next utterance.
func (d *Decoder) Start(cfg Config) *Session {
	if cfg.AcousticScale == 0 {
		cfg.AcousticScale = 1
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func() core.Store[*Token] { return core.NewUnbounded[*Token](0, 0, 0) }
	}
	s := &Session{
		d:       d,
		cfg:     cfg,
		store:   cfg.NewStore(),
		started: true,
	}
	if !cfg.HeapAlloc {
		s.cur, s.spare = newTokenMap(64), newTokenMap(64)
	}
	s.harvest = func(key uint64, cost float64, tok *Token) {
		tok.Cost = cost // store may have recombined
		i, _ := s.spare.claim(int32(key))
		s.spare.live[i].tok = tok
	}
	s.seed()
	return s
}

// Restart recycles a finished (or abandoned) session for the next
// utterance: the hypothesis store is reset in place (contents and
// statistics), the token maps and arenas rewind, and the search is
// re-seeded at the start state. Results and statistics are
// bit-identical to a fresh Decoder.Start with the same configuration.
//
// cfg replaces the session's search parameters, except that NewStore
// and HeapAlloc are structural — the store was built and the
// allocation mode chosen at Start — so the values pinned then remain
// in force and cfg's are ignored.
func (s *Session) Restart(cfg Config) error {
	if !s.started {
		return ErrNotStarted
	}
	if cfg.AcousticScale == 0 {
		cfg.AcousticScale = 1
	}
	cfg.NewStore = s.cfg.NewStore
	cfg.HeapAlloc = s.cfg.HeapAlloc
	s.cfg = cfg

	s.store.Reset()
	s.store.ResetStats()
	s.res = Result{}
	s.prevCycles = 0
	s.finished = false
	if !s.cfg.HeapAlloc {
		s.recycled += s.tokens[0].rewind() + s.tokens[1].rewind() + s.words.rewind()
	}
	s.seed()
	obsSessionReuses.Inc()
	return nil
}

// seed places the initial zero-cost token at the graph's start state.
// In pooled mode the token comes from arena 1: frame 0 rewinds arena
// 0, and the seed — dead once frame 0's harvest replaces the map — is
// reclaimed by frame 1's rewind, exactly like a frame -1 token. An
// adaptive policy is reset here so Start and Restart both begin the
// utterance from the policy's initial state.
func (s *Session) seed() {
	if s.cfg.Policy != nil {
		s.cfg.Policy.Reset()
	}
	var tok *Token
	if s.cfg.HeapAlloc {
		s.cur = newTokenMap(1)
		tok = &Token{}
	} else {
		s.cur.reset()
		s.spare.reset()
		tok = s.tokens[1].alloc()
		tok.Cost = 0
		tok.Words = nil
	}
	i, _ := s.cur.claim(s.d.fst.StartState())
	s.cur.live[i].tok = tok
}

// Arena reports the session's pooled allocation state (zero when
// Config.HeapAlloc).
func (s *Session) Arena() ArenaStats {
	if !s.started || s.cfg.HeapAlloc {
		return ArenaStats{}
	}
	return ArenaStats{
		TokenSlots: s.tokens[0].slots() + s.tokens[1].slots(),
		WordSlots:  s.words.slots(),
		Bytes:      s.tokens[0].bytes() + s.tokens[1].bytes() + s.words.bytes(),
		MapBytes:   s.cur.bytes() + s.spare.bytes(),
	}
}

// PushFrame processes one frame of acoustic log-posteriors
// (frame[senone], values <= 0).
func (s *Session) PushFrame(frame []float64) error {
	if !s.started {
		return ErrNotStarted
	}
	if s.finished {
		return ErrFinished
	}
	sp := obsFrameTime.Start()
	fa := FrameActivity{}
	pooled := !s.cfg.HeapAlloc
	par := s.res.Stats.Frames & 1
	if pooled {
		// Reclaim frame t-2's tokens: nothing references them once
		// frame t-1's harvest replaced the live map.
		s.recycled += s.tokens[par].rewind()
	}
	// Frame pruning parameters: static from the config, or decided by
	// the adaptive policy from the frame's top-1 log-posterior and the
	// occupancy entering the frame. The top-1 scan is one pass over
	// the score vector, orders of magnitude under the arc expansion it
	// governs, and is skipped entirely on the static path.
	beam, maxActive := s.cfg.Beam, s.cfg.MaxActive
	if s.cfg.Policy != nil {
		top1 := math.Inf(-1)
		for _, v := range frame {
			if v > top1 {
				top1 = v
			}
		}
		beam, maxActive = s.cfg.Policy.FrameParams(top1, s.cur.len())
	}
	fa.Beam = beam
	s.closure(s.cur, &fa, pooled, par)
	s.expand(frame, &fa, pooled, par, beam, maxActive)

	// Harvest the store into the next frame's token map, in the
	// store's own (deterministic) readout order.
	if pooled {
		s.spare.reset()
	} else {
		s.spare = newTokenMap(s.store.Len())
	}
	s.store.Each(s.harvest)
	s.cur, s.spare = s.spare, s.cur

	cycles := s.store.Stats().Cycles
	fa.StoreCycles = cycles - s.prevCycles
	s.prevCycles = cycles

	s.res.Stats.Frames++
	s.res.Stats.ArcsEvaluated += int64(fa.EmitArcs)
	s.res.Stats.Hypotheses += int64(fa.Inserts)
	s.res.Stats.EpsExpansions += int64(fa.EpsArcs)
	s.res.Stats.SumActive += int64(fa.Active)
	if fa.Active > s.res.Stats.MaxActive {
		s.res.Stats.MaxActive = fa.Active
	}
	if s.cfg.RecordPerFrame {
		s.res.Frames = append(s.res.Frames, fa)
	}
	if s.cfg.Probe != nil {
		s.cfg.Probe.FrameDone()
	}
	obsFrames.Inc()
	obsArcs.Add(int64(fa.EmitArcs))
	obsHypotheses.Add(int64(fa.Inserts))
	obsEps.Add(int64(fa.EpsArcs))
	obsOccupancy.Observe(float64(fa.Active))
	obsLiveTokens.Set(float64(s.cur.len()))
	sp.Stop()
	return nil
}

// Active reports the number of live hypotheses; zero means the beam
// has collapsed and no further frame can revive the search. A
// never-started session has none.
func (s *Session) Active() int {
	if !s.started {
		return 0
	}
	return s.cur.len()
}

// Partial returns the current best hypothesis without ending the
// session — the live-captioning readout. It prefers final states but
// falls back to the best live token.
func (s *Session) Partial() ([]int, bool) {
	if !s.started || s.finished {
		return nil, false
	}
	// Work on a copy: closure mutates, and the session must continue.
	// The snapshot's relaxation tokens are heap-allocated (pooled=false)
	// so the frame arenas see only real frame work.
	snapshot := s.cur.clone()
	var fa FrameActivity
	s.closure(snapshot, &fa, false, 0)
	bestCost := math.Inf(1)
	var best *Token
	anyFinal := false
	for _, e := range snapshot.live {
		final := s.d.fst.IsFinal(e.state)
		c := e.tok.Cost
		if final {
			c += s.d.fst.FinalCost(e.state)
		}
		switch {
		case final && !anyFinal:
			anyFinal = true
			bestCost, best = c, e.tok
		case final == anyFinal && c < bestCost:
			bestCost, best = c, e.tok
		}
	}
	if best == nil {
		return nil, false
	}
	return best.Words.Decoded(), anyFinal
}

// Finish ends the session and returns the full result; further
// PushFrame calls fail (use Restart to decode the next utterance).
// Finish is idempotent, and on a never-started session it returns the
// zero Result rather than touching absent search state.
func (s *Session) Finish() Result {
	if !s.started || s.finished {
		return s.res
	}
	s.finished = true
	// Final epsilon closure, then collect every surviving final-state
	// hypothesis (the n-best list) and pick the best. The closure's
	// relaxation tokens are heap-allocated: they must survive into the
	// Result's backtraces, and Finish is off the steady-state path.
	var fa FrameActivity
	s.closure(s.cur, &fa, false, 0)
	bestCost := math.Inf(1)
	var bestTok *Token
	for _, e := range s.cur.live {
		if !s.d.fst.IsFinal(e.state) {
			continue
		}
		c := e.tok.Cost + s.d.fst.FinalCost(e.state)
		s.res.Finals = append(s.res.Finals, Hypothesis{Words: e.tok.Words.Decoded(), Cost: c})
		if c < bestCost {
			bestCost = c
			bestTok = e.tok
		}
	}
	// Documented readout order: best first, ties keeping the
	// final-state iteration order they were collected in.
	sort.SliceStable(s.res.Finals, func(i, j int) bool {
		return s.res.Finals[i].Cost < s.res.Finals[j].Cost
	})
	if bestTok != nil {
		s.res.OK = true
		s.res.Cost = bestCost
		s.res.Words = bestTok.Words.Decoded()
	}
	s.res.Stats.Store = s.store.Stats()
	obsSessions.Inc()
	obsCollisions.Add(s.res.Stats.Store.Collisions)
	obsOverflows.Add(s.res.Stats.Store.Overflows)
	if !s.cfg.HeapAlloc {
		obsArenaBytes.Set(float64(s.Arena().Bytes))
		if s.recycled > 0 {
			obsArenaRecycled.Add(s.recycled)
			s.recycled = 0
		}
	}
	return s.res
}

// closure relaxes non-emitting arcs until costs stabilize. Costs only
// decrease, so a work-queue relaxation terminates. The queue is a
// stack of map positions (a relaxed state keeps its position). Each
// token the map holds on entry, last to first, seeds it and is drained
// before the next — the order a stack seeded with the whole map pops —
// keeping the relaxation, and the EpsArcs count it accumulates,
// deterministic. Relaxation always creates a fresh token (never
// mutates in place): Partial snapshots share token pointers with the
// live map, and the store from the previous frame still points at the
// harvested tokens.
//
// pooled selects where those tokens come from: the frame-parity arena
// (par) on the hot path, or the heap for the HeapAlloc reference mode
// and the Partial/Finish readouts.
func (s *Session) closure(m *tokenMap, fa *FrameActivity, pooled bool, par int) {
	s.queue = s.queue[:0]
	for seed := m.len() - 1; seed >= 0; seed-- {
		for p := int32(seed); ; {
			e := m.live[p]
			tok := e.tok
			for _, a := range s.d.fst.Arcs(e.state) {
				if a.ILabel != wfst.Epsilon {
					continue
				}
				fa.EpsArcs++
				cost := tok.Cost + a.Weight
				next, ok := m.claim(a.Next)
				if ok && m.live[next].tok.Cost <= cost {
					continue
				}
				words := tok.Words
				if a.OLabel != wfst.Epsilon {
					if pooled {
						wl := s.words.alloc()
						wl.Word = wfst.WordOf(a.OLabel)
						wl.Prev = words
						words = wl
					} else {
						words = &WordLink{Word: wfst.WordOf(a.OLabel), Prev: words}
					}
				}
				var nt *Token
				if pooled {
					nt = s.tokens[par].alloc()
					nt.Cost = cost
					nt.Words = words
				} else {
					nt = &Token{Cost: cost, Words: words}
				}
				m.live[next].tok = nt
				s.queue = append(s.queue, next)
			}
			if len(s.queue) == 0 {
				break
			}
			p = s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
		}
	}
}

// expand applies beam/max-active limits and expands emitting arcs of
// every surviving token into the store. beam and maxActive are the
// frame's pruning parameters (the config's, or the adaptive policy's
// for this frame). In pooled mode each candidate token comes from the
// frame-parity arena; a candidate the store rejects outright is
// handed straight back (freeLast), so rejection storms — the very
// workload explosion the paper studies — do not grow the arena.
func (s *Session) expand(frame []float64, fa *FrameActivity, pooled bool, par int, beam float64, maxActive int) {
	cur := s.cur
	best := math.Inf(1)
	for _, e := range cur.live {
		if e.tok.Cost < best {
			best = e.tok.Cost
		}
	}
	limit := math.Inf(1)
	if beam > 0 {
		limit = best + beam
	}
	expandLimit := limit
	if maxActive > 0 && cur.len() > maxActive {
		if l := s.maxActiveLimit(maxActive); l < expandLimit {
			expandLimit = l
		}
	}

	d := s.d
	s.store.Reset()
	for _, e := range cur.live {
		st, tok := e.state, e.tok
		if tok.Cost > expandLimit {
			continue
		}
		fa.Active++
		if s.cfg.Probe != nil {
			s.cfg.Probe.Access(RegionState, int64(st)*stateRecordBytes, stateRecordBytes)
			s.cfg.Probe.Access(RegionArc, d.arcAddr(st), len(d.fst.Arcs(st))*arcRecordBytes)
		}
		for _, a := range d.fst.Arcs(st) {
			if a.ILabel == wfst.Epsilon {
				continue
			}
			sen := wfst.SenoneOf(a.ILabel)
			if sen >= len(frame) {
				panic(fmt.Sprintf("decoder: senone %d outside score vector of %d", sen, len(frame)))
			}
			ac := -s.cfg.AcousticScale * frame[sen]
			cost := tok.Cost + a.Weight + ac
			fa.EmitArcs++
			if cost > limit {
				continue
			}
			words := tok.Words
			var wl *WordLink
			if a.OLabel != wfst.Epsilon {
				if pooled {
					wl = s.words.alloc()
					wl.Word = wfst.WordOf(a.OLabel)
					wl.Prev = words
					words = wl
				} else {
					words = &WordLink{Word: wfst.WordOf(a.OLabel), Prev: words}
				}
				if s.cfg.Probe != nil {
					s.cfg.Probe.Access(RegionLattice, int64(fa.Inserts)*latticeBytes, latticeBytes)
				}
			}
			fa.Inserts++
			var nt *Token
			if pooled {
				nt = s.tokens[par].alloc()
				nt.Cost = cost
				nt.Words = words
				if s.store.Insert(uint64(a.Next), cost, nt) == core.Rejected {
					s.tokens[par].freeLast(nt)
					if wl != nil {
						s.words.freeLast(wl)
					}
				}
			} else {
				s.store.Insert(uint64(a.Next), cost, &Token{Cost: cost, Words: words})
			}
		}
	}
}

// maxActiveLimit returns the cost threshold that keeps only the n
// cheapest tokens (histogram pruning's partial sort), using the
// session's reusable cost scratch.
func (s *Session) maxActiveLimit(n int) float64 {
	s.costs = s.costs[:0]
	for _, e := range s.cur.live {
		s.costs = append(s.costs, e.tok.Cost)
	}
	sort.Float64s(s.costs)
	return s.costs[n-1]
}
