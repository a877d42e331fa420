package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/accel/viterbisim"
	"repro/internal/decoder"
	"repro/internal/dnn"
)

// offlineWorker is one darkside-style worker: its own Exec and pooled
// decode sessions, restarted per utterance.
type offlineWorker struct {
	e      *engine
	ex     *dnn.Exec
	ses    [2]*decoder.Session // one per offlineStores entry
	scores [][]float64         // per-frame posteriors of the current utterance, reused
	cfgs   [2]decoder.Config
}

// offlineStores are the two probed decodes of every utterance:
// UNFOLD's unbounded table, then the paper's N-best set-associative
// one.
var offlineStores = [2]string{"unbounded", "nbest"}

func (e *engine) newOfflineWorker() (*offlineWorker, error) {
	w := &offlineWorker{e: e, ex: e.plan.NewExec()}
	for k, store := range offlineStores {
		cfg, err := e.decodeConfig(store)
		if err != nil {
			return nil, err
		}
		w.cfgs[k] = cfg
	}
	return w, nil
}

// offlineOutcome is what one utterance produced: both transcripts and
// both simulated cycle totals. All four must repeat exactly.
type offlineOutcome struct {
	words  [2][]int
	cycles [2]int64
}

func (a offlineOutcome) equal(b offlineOutcome) bool {
	for k := range a.words {
		if a.cycles[k] != b.cycles[k] || !slices.Equal(a.words[k], b.words[k]) {
			return false
		}
	}
	return true
}

// run scores every frame once, single-frame, then decodes the scores
// twice with a simulator probe attached. probed=false drops the probe;
// the traced run uses the difference as the simulator's host cost.
func (w *offlineWorker) run(u *utterance, id string, probed bool, tr *tracer) (offlineOutcome, error) {
	var out offlineOutcome
	root := tr.begin("session", id, -1)
	tr.frames(root, len(u.Frames))
	defer tr.end(root)
	for len(w.scores) < len(u.Frames) {
		w.scores = append(w.scores, make([]float64, w.e.plan.OutDim()))
	}
	sp := tr.begin("dnn.forward", id, root)
	for t, f := range u.Frames {
		w.ex.LogPosteriors(w.scores[t], f)
	}
	tr.end(sp)

	for k := range offlineStores {
		cfg := w.cfgs[k]
		var sim *viterbisim.Simulator
		if probed {
			vcfg := w.e.scale.ViterbiConfig()
			vcfg.NBestTable = offlineStores[k] == "nbest"
			sim = viterbisim.New(vcfg)
			cfg.Probe = sim
		}
		// NewStore is structural — a session keeps the store it was
		// started with — so each store kind has its own pooled session.
		name := "decoder.search."
		if !probed {
			name = "decoder.search_noprobe."
		}
		sp = tr.begin(name+offlineStores[k], id, root)
		ses := w.ses[k]
		if ses == nil {
			ses = w.e.dec.Start(cfg)
			w.ses[k] = ses
		} else if err := ses.Restart(cfg); err != nil {
			return out, err
		}
		for t := range u.Frames {
			if err := ses.PushFrame(w.scores[t]); err != nil {
				return out, err
			}
		}
		r := ses.Finish()
		if sim != nil {
			out.cycles[k] = sim.Finish(r.Stats).Cycles
		}
		tr.end(sp)
		out.words[k] = r.Words
	}
	return out, nil
}

// offlineTarget is the offline-sim program under test: a pool of
// workers over one engine, checked against the expected outcomes.
type offlineTarget struct {
	workers []*offlineWorker
	corpus  *corpus
	want    []offlineOutcome
}

// newOfflineTarget builds the pool and takes the expected outcomes
// from one serial pass on a worker of its own, which doubles as the
// warm-up.
func newOfflineTarget(e *engine, c *corpus, workers int) (*offlineTarget, error) {
	t := &offlineTarget{corpus: c, want: make([]offlineOutcome, len(c.Utts))}
	for i := 0; i <= workers; i++ {
		w, err := e.newOfflineWorker()
		if err != nil {
			return nil, err
		}
		t.workers = append(t.workers, w)
	}
	serial := t.workers[workers]
	t.workers = t.workers[:workers]
	for i := range c.Utts {
		var err error
		if t.want[i], err = serial.run(&c.Utts[i], "", true, nil); err != nil {
			return nil, fmt.Errorf("offline decode of utterance %d: %w", i, err)
		}
	}
	return t, nil
}

// round runs sessions 0..n-1 on the first conns workers; "session" i
// is utterance i mod len(corpus), scored and decoded twice.
func (t *offlineTarget) round(sessions, conns int, tr *tracer) round {
	return fanOut(sessions, conns, func(w, i int) sessionOutcome {
		u := i % len(t.corpus.Utts)
		utt := &t.corpus.Utts[u]
		start := time.Now()
		got, err := t.workers[w].run(utt, fmt.Sprintf("%s%d", roundID, i), true, tr)
		return sessionOutcome{
			frames:     len(utt.Frames),
			usPerFrame: float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(utt.Frames)),
			err:        err,
			mismatch:   err == nil && !got.equal(t.want[u]),
		}
	})
}

func (t *offlineTarget) cpuSeconds() (float64, error) { return selfCPUSeconds(), nil }
