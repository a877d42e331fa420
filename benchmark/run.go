package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/serve"
)

// target is the program under test as one workload reaches it: a
// server set behind the client API, or the in-process offline pool.
type target interface {
	// round runs sessions 0..n-1 on conns closed-loop callers.
	round(sessions, conns int, tr *tracer) round
	// cpuSeconds is the CPU time the program under test has used.
	cpuSeconds() (float64, error)
}

// result is what one invocation reports: named values with their
// sample counts, and the attempted/failed tally over all phases.
type result struct {
	values  map[string]float64
	samples map[string]int
	tally   tally
	ledger  []string // the ledger self-check, line by line (traced runs)
}

func newResult() result {
	return result{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a value; a ratio over nothing (NaN, ±Inf) reads 0, which
// JSON can carry.
func (r *result) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	r.samples[name] = n
}

// env is everything one workload invocation works with.
type env struct {
	w      workload
	sz     sizing
	binDir string // asrserve and asrrouter binaries
	outDir string // traces and server logs
	model  string // the workload's model file
	corpus *corpus
	refs   []reference // filled by references on first use
}

// references is the in-process reference decode of the corpus under
// the workload's model, backend and store: what every served reply
// must equal. It is decoded once per invocation.
func (e *env) references() ([]reference, error) {
	if e.refs != nil {
		return e.refs, nil
	}
	eng, err := newEngine(e.sz.Scale, e.model, e.w.Backend, nil)
	if err != nil {
		return nil, err
	}
	e.refs, err = eng.references(e.corpus, e.w.Store)
	return e.refs, err
}

// rig is an opened target: the program under test is up, warm and
// its outputs have a reference to be checked against.
type rig struct {
	target
	setups []float64   // cold-start samples, seconds
	srv    *servers    // nil for offline-sim
	refs   []reference // what every served reply must equal
}

// coldStart times exec of the workload's server processes to the
// first ready reply on a probe session.
func (e *env) coldStart(tag string, traced bool) (*servers, float64, error) {
	start := time.Now()
	s, err := startServers(e.w, e.sz, e.binDir, e.model, e.outDir, tag, traced)
	if err != nil {
		return nil, 0, err
	}
	cs, err := serve.Dial(s.addr, serve.SessionOptions{ID: "probe"})
	setup := time.Since(start).Seconds()
	if err == nil {
		// Finishing the empty session frees its slot before any
		// measured session dials.
		_, _, err = cs.Finish()
		cs.Close()
	}
	if err != nil {
		s.killAll()
		return nil, 0, fmt.Errorf("probe session: %w", err)
	}
	return s, setup, nil
}

// open cold-starts the program under test coldStarts times and keeps
// the last instance.
// For a served workload a cold start is the server processes; for
// offline-sim it is load + compile + graph + decoder in this process.
func (e *env) open(tag string, traced bool, coldStarts int) (*rig, error) {
	s := &rig{}
	if e.w.Offline {
		var eng *engine
		for i := 0; i < coldStarts; i++ {
			// A fresh process starts with an empty heap; without this
			// the collector runs inside some samples and not others.
			runtime.GC()
			start := time.Now()
			var err error
			if eng, err = newEngine(e.sz.Scale, e.model, e.w.Backend, nil); err != nil {
				return nil, err
			}
			s.setups = append(s.setups, time.Since(start).Seconds())
		}
		t, err := newOfflineTarget(eng, e.corpus, e.w.conns())
		if err != nil {
			return nil, err
		}
		s.target = t
		return s, nil
	}

	var err error
	if s.refs, err = e.references(); err != nil {
		return nil, err
	}
	for i := 0; i < coldStarts; i++ {
		if s.srv != nil {
			if err := s.srv.stop(); err != nil {
				return nil, err
			}
		}
		srv, setup, err := e.coldStart(tag, traced)
		if err != nil {
			return nil, err
		}
		s.srv = srv
		s.setups = append(s.setups, setup)
	}
	s.target = &servedTarget{srv: s.srv, corpus: e.corpus, refs: s.refs}
	return s, nil
}

// close stops the servers, requiring a clean drain.
func (s *rig) close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.stop()
}

// abort is close for error paths: no drain, no second error.
func (s *rig) abort() {
	if s.srv != nil {
		s.srv.killAll()
	}
}

// peakMB is the resident-set high-water mark of the program under test.
func (s *rig) peakMB() (float64, error) {
	if s.srv == nil {
		return peakRSSMB(os.Getpid())
	}
	return s.srv.peakRSSMB()
}

// phases is the measurement itself: solo and saturation rounds
// interleaved for as long as another pair fits into `seconds` (at least
// sz.MinRounds of each). Every round is whole passes over the corpus,
// so rounds are directly comparable and the reported value is their
// median.
type phases struct {
	soloP50 []float64 // per round: median over sessions of µs/frame, 1 caller
	satFPS  []float64 // per round: decoded frames / wall, C callers
	satCPU  []float64 // per round: CPU µs of the program under test / frame
	satLat  []float64 // every saturation session's µs/frame, pooled
	// soloStalled of soloSessions were stalled (see stallFactor).
	soloStalled, soloSessions int
	frames                    int // frames completed over all rounds
	tally                     tally
}

// stallFactor marks a solo session as stalled: this many times slower
// per frame than the median session of its round. Alone on the server,
// only a stall in the transport does that.
const stallFactor = 3

func runPhases(t target, sz sizing, n, conns int, seconds float64, tr *tracer) (phases, error) {
	var p phases
	begin := time.Now()
	for r := 0; r < sz.MinRounds || anotherFits(begin, r, seconds); r++ {
		solo := t.round(sz.SoloPasses*n, 1, tr)
		p.tally.add(solo.outcomes)
		p.frames += solo.frames
		lat := solo.latencies()
		p50 := median(lat)
		p.soloP50 = append(p.soloP50, p50)
		p.soloSessions += len(lat)
		for _, l := range lat {
			if l > stallFactor*p50 {
				p.soloStalled++
			}
		}

		cpu0, err := t.cpuSeconds()
		if err != nil {
			return p, err
		}
		sat := t.round(sz.SatPasses*n, conns, tr)
		cpu1, err := t.cpuSeconds()
		if err != nil {
			return p, err
		}
		p.tally.add(sat.outcomes)
		p.frames += sat.frames
		p.satLat = append(p.satLat, sat.latencies()...)
		if sat.frames > 0 {
			p.satFPS = append(p.satFPS, float64(sat.frames)/sat.wall.Seconds())
			p.satCPU = append(p.satCPU, (cpu1-cpu0)*1e6/float64(sat.frames))
		}
	}
	return p, nil
}

// anotherFits reports whether one more round, taking as long as the
// mean of the `done` rounds since begin, still ends within `seconds`.
func anotherFits(begin time.Time, done int, seconds float64) bool {
	elapsed := time.Since(begin).Seconds()
	return elapsed+elapsed/float64(done) <= seconds
}

// measure is the untraced run: the end-to-end metrics.
func (e *env) measure(seconds float64) (result, error) {
	res := newResult()
	s, err := e.open("run", false, e.sz.ColdStarts)
	if err != nil {
		return res, err
	}
	n := len(e.corpus.Utts)
	// One untimed pass fills the session pool, the caches and the heap.
	warm := s.round(n, 1, nil)
	res.tally.add(warm.outcomes)

	p, err := runPhases(s, e.sz, n, e.w.conns(), seconds, nil)
	if err != nil {
		s.abort()
		return res, err
	}
	res.tally.merge(p.tally)
	mem, err := s.peakMB()
	if err != nil {
		s.abort()
		return res, err
	}
	if err := s.close(); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "  rounds: sat frames/s %.0f\n          solo p50 us %.1f\n          sat cpu us/frame %.1f\n          cold starts s %.4f\n", p.satFPS, p.soloP50, p.satCPU, s.setups)
	res.set("setup_s", median(s.setups), len(s.setups))
	res.set("frames_per_s", median(p.satFPS), len(p.satFPS))
	res.set("frame_p50_us", median(p.soloP50), len(p.soloP50))
	res.set("cpu_us_per_frame", median(p.satCPU), len(p.satCPU))
	res.set("mem_peak_mb", mem, 1)
	return res, nil
}

// dirs are the places an invocation writes to.
type dirs struct {
	bin   string // asrserve and asrrouter binaries (read only)
	cache string // trained models
	out   string // traces and server logs
}

// prepare trains or loads the models and generates the corpus for one
// workload. trainSeconds is 0 when the model cache was hit.
func prepare(w workload, sz sizing, d dirs, seed int64) (e *env, trainSeconds float64, err error) {
	e = &env{w: w, sz: sz, binDir: d.bin, outDir: d.out}
	if err := os.MkdirAll(d.out, 0o755); err != nil {
		return nil, 0, err
	}
	models, trainSeconds, err := ensureModels(sz.Scale, d.cache)
	if err != nil {
		return nil, 0, err
	}
	e.model = models[w.Model]
	if e.corpus, err = generateCorpus(sz.Scale, w.Mix, sz.Utts, seed); err != nil {
		return nil, 0, err
	}
	return e, trainSeconds, nil
}
