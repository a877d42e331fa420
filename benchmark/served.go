package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// sessionOutcome is one closed-loop session as its caller saw it.
type sessionOutcome struct {
	frames     int
	usPerFrame float64 // (dial → result) / frames
	err        error   // dial, push or finish failed, or the server rejected
	mismatch   bool    // reply differs from the in-process reference
}

// failed is the fail_ratio numerator: an error, a reject, a wrong
// transcript, or a session decoded slower than real time.
func (o sessionOutcome) failed() bool {
	return o.err != nil || o.mismatch || o.usPerFrame > realTimeUSPerFrame
}

// runSession streams one utterance through the public client API and
// checks the reply. tr is nil on the untraced run.
func runSession(addr, id string, u *utterance, ref reference, tr *tracer) sessionOutcome {
	out := sessionOutcome{frames: len(u.Frames)}
	start := time.Now()
	root := tr.begin("session", id, -1)
	tr.frames(root, len(u.Frames))
	defer tr.end(root)

	sp := tr.begin("serve.dial", id, root)
	cs, err := serve.Dial(addr, serve.SessionOptions{ID: id})
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	defer cs.Close()
	for _, f := range u.Frames {
		sp = tr.begin("serve.client_push", id, root)
		err = cs.PushFrame(f)
		tr.end(sp)
		if err != nil {
			out.err = err
			return out
		}
	}
	sp = tr.begin("serve.finish", id, root)
	rep, _, err := cs.Finish()
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	out.usPerFrame = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(u.Frames))
	out.mismatch = rep.Frames != len(u.Frames) || !ref.matches(rep.Words, rep.Cost, rep.OK)
	return out
}

// round is one phase execution: sessions 0..n-1 over conns closed-loop
// callers. Session i always replays utterance i mod len(corpus) under
// the id "s<i>", so every round offers identical work and the router
// shards it identically.
type round struct {
	outcomes []sessionOutcome
	wall     time.Duration
	frames   int // frames of the sessions that completed
}

// fanOut runs do(worker, i) for sessions 0..n-1 on conns goroutines;
// each takes the next index as soon as its previous session returned.
func fanOut(sessions, conns int, do func(worker, i int) sessionOutcome) round {
	r := round{outcomes: make([]sessionOutcome, sessions)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions {
					return
				}
				r.outcomes[i] = do(w, i)
			}
		}(w)
	}
	wg.Wait()
	r.wall = time.Since(start)
	for _, o := range r.outcomes {
		if o.err == nil {
			r.frames += o.frames
		}
	}
	return r
}

// servedTarget is a running server set plus what is sent to it.
type servedTarget struct {
	srv    *servers
	corpus *corpus
	refs   []reference
}

func (t *servedTarget) round(sessions, conns int, tr *tracer) round {
	return fanOut(sessions, conns, func(_, i int) sessionOutcome {
		u := i % len(t.corpus.Utts)
		return runSession(t.srv.addr, fmt.Sprintf("%s%d", roundID, i), &t.corpus.Utts[u], t.refs[u], tr)
	})
}

func (t *servedTarget) cpuSeconds() (float64, error) { return t.srv.cpuSeconds() }

// latencies lists the per-frame latency of every completed session.
func (r round) latencies() []float64 {
	out := make([]float64, 0, len(r.outcomes))
	for _, o := range r.outcomes {
		if o.err == nil {
			out = append(out, o.usPerFrame)
		}
	}
	return out
}

// tally accumulates attempted/failed/mismatched sessions over phases.
type tally struct {
	attempted, failed, mismatched int
	firstErr                      error
}

func (t *tally) add(outcomes []sessionOutcome) {
	for _, o := range outcomes {
		t.attempted++
		if o.failed() {
			t.failed++
		}
		if o.mismatch {
			t.mismatched++
		}
		if o.err != nil && t.firstErr == nil {
			t.firstErr = o.err
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatched += o.mismatched
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}
