package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
	"repro/internal/registry"
	"repro/internal/serve"
)

// layers is the traced run: the per-layer metrics. It measures every
// layer from this side of its public API, in four parts that share
// one tracer: the set-up calls, a stage-by-stage replay of the corpus
// (wire model, forward, search, simulator), kernel probes (batched
// forward, the paper-scale stack), and the program under test run
// plain and traced side by side. It ends with the ledger self-check
// and writes the spans to out/trace-<workload>.json.
func (e *env) layers(seconds float64) (result, error) {
	res := newResult()
	tr := newTracer()

	eng, err := e.traceSetup(tr, &res)
	if err != nil {
		return res, err
	}
	if err := e.replayStages(eng, tr, &res); err != nil {
		return res, err
	}
	if err := e.probeKernels(eng, tr, &res); err != nil {
		return res, err
	}
	soloP50, err := e.sideBySide(seconds, tr, &res)
	if err != nil {
		return res, err
	}
	e.ledger(soloP50, tr, &res)

	if err := tr.write(filepath.Join(e.outDir, "trace-"+e.w.Name+".json")); err != nil {
		return res, err
	}
	ledger := strings.Join(res.ledger, "\n") + "\n"
	return res, os.WriteFile(filepath.Join(e.outDir, "ledger-"+e.w.Name+".txt"), []byte(ledger), 0o644)
}

// Session id prefixes keep the traced populations apart: the sessions
// of measured rounds (ids the servers and the router see), the
// stage-by-stage replay, and the probed and unprobed simulator passes.
const (
	roundID   = "s"
	replayID  = "replay-"
	probeID   = "probe-"
	noProbeID = "noprobe-"
)

// setupRepeats is how often the set-up calls are timed; their medians
// are reported.
const setupRepeats = 5

// traceSetup spans the calls an asrserve makes before it can serve:
// dnn.LoadFile, dnn.Compile, wfst.Compile, and Registry.Register
// (which compiles again) with Resolve. These are where work moved into
// set-up shows.
func (e *env) traceSetup(tr *tracer, res *result) (*engine, error) {
	var eng *engine
	for i := 0; i < setupRepeats; i++ {
		var err error
		if eng, err = newEngine(e.sz.Scale, e.model, e.w.Backend, tr); err != nil {
			return nil, err
		}
	}
	backend, err := dnn.ParseBackend(e.w.Backend)
	if err != nil {
		return nil, err
	}
	net, err := dnn.LoadFile(e.model)
	if err != nil {
		return nil, err
	}
	const resolves = 1000 // one span around many: a Resolve is shorter than a clock read
	for i := 0; i < setupRepeats; i++ {
		reg := registry.New()
		sp := tr.begin("registry.register", "", -1)
		_, err := reg.Register("default", e.model, net, backend)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("registry.resolve_x1000", "", -1)
		for k := 0; k < resolves; k++ {
			if _, ok := reg.Resolve(""); !ok {
				return nil, fmt.Errorf("registry does not resolve its default variant")
			}
		}
		tr.end(sp)
	}
	setMedian := func(name, span string, scale float64) {
		d := tr.durationsUS(span)
		res.set(name, median(d)*scale, len(d))
	}
	setMedian("dnn.load_ms", "dnn.load", 1e-3)
	setMedian("dnn.compile_ms", "dnn.compile", 1e-3)
	setMedian("wfst.compile_ms", "wfst.compile", 1e-3)
	setMedian("registry.register_ms", "registry.register", 1e-3)
	setMedian("registry.resolve_ns", "registry.resolve_x1000", 1e3/resolves)
	res.set("wfst.states", float64(eng.graph.NumStates()), 1)
	res.set("wfst.arcs", float64(eng.graph.NumArcs()), 1)

	kernels := eng.plan.Kernels()
	distinct, weightBytes, flops := computedCost(net, kernels)
	res.set("dnn.kernels", float64(distinct), len(kernels))
	res.set("dnn.weight_bytes_per_frame", weightBytes, 1)
	res.set("dnn.flops_per_frame", flops, 1)
	fmt.Fprintf(os.Stderr, "  plan kernels: %v\n", kernels)
	return eng, nil
}

// computedCost is what one forward pass must read and multiply —
// computed from layer shapes, masks and the kernel each layer got, not
// measured — and the number of distinct kernels in the plan.
func computedCost(net *dnn.Network, kernels []string) (distinct int, weightBytes, flops float64) {
	seen := map[string]bool{}
	fcs := net.FCs()
	fc := 0
	for _, k := range kernels {
		if k == "-" || fc >= len(fcs) {
			continue // pooling and renorm layers carry no weights
		}
		seen[k] = true
		f := fcs[fc]
		fc++
		all, active := float64(f.WeightCount()), float64(f.ActiveWeights())
		flops += 2*active + float64(f.OutDim())
		switch k {
		case "dense":
			weightBytes += 8 * all
		case "sparse": // value + column index per nonzero, one row pointer per row
			weightBytes += 12*active + 4*float64(f.OutDim())
		case "bsr": // dense tile payloads, one index per tile
			tile := float64(f.BlockSize * f.BlockSize)
			if tile == 0 {
				tile = 64
			}
			weightBytes += 8*active + 4*active/tile
		case "int8":
			weightBytes += all
		case "sparse_int8":
			weightBytes += 5*active + 4*float64(f.OutDim())
		default: // a kernel this file does not know: assume float64 payloads
			weightBytes += 8 * active
		}
		weightBytes += 8 * float64(f.OutDim()) // biases
	}
	return len(seen), weightBytes, flops
}

// replayStages takes every utterance through the frame's life one
// stage at a time, in this process, with a span per call: encode the
// frames as the client does, decode them as the server does, score,
// search, finish, encode the reply. The wire stages are a protocol
// cost model — encoding/json on the public serve.Request and
// serve.Reply, exactly as client.go and conn.go use it — not a
// measurement of the server's own code.
func (e *env) replayStages(eng *engine, tr *tracer, res *result) error {
	refs, err := e.references()
	if err != nil {
		return err
	}
	cfg, err := eng.decodeConfig(e.w.Store)
	if err != nil {
		return err
	}
	ex := eng.plan.NewExec()
	ses := eng.dec.Start(cfg)
	var scores, inputs [][]float64
	var wireBytes, frames int64
	var allocPerFrame []float64
	var replay tally
	for i := range e.corpus.Utts {
		u := &e.corpus.Utts[i]
		id := fmt.Sprintf("%s%d", replayID, i)
		root := tr.begin("session", id, -1)
		tr.frames(root, len(u.Frames))

		var wire bytes.Buffer
		enc := json.NewEncoder(&wire)
		for _, f := range u.Frames {
			sp := tr.begin("serve.wire_encode", id, root)
			err := enc.Encode(serve.Request{Op: serve.OpFrame, Data: f})
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		wireBytes += int64(wire.Len())
		frames += int64(len(u.Frames))

		dec := json.NewDecoder(bufio.NewReader(&wire))
		inputs = inputs[:0]
		for range u.Frames {
			var req serve.Request
			sp := tr.begin("serve.wire_decode", id, root)
			err := dec.Decode(&req)
			tr.end(sp)
			if err != nil {
				return err
			}
			inputs = append(inputs, req.Data)
		}

		for len(scores) < len(u.Frames) {
			scores = append(scores, make([]float64, eng.plan.OutDim()))
		}
		for t, in := range inputs {
			sp := tr.begin("dnn.forward", id, root)
			ex.LogPosteriors(scores[t], in)
			tr.end(sp)
		}

		if err := ses.Restart(cfg); err != nil {
			return err
		}
		for t := range inputs {
			sp := tr.begin("decoder.push", id, root)
			err := ses.PushFrame(scores[t])
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp := tr.begin("decoder.finish", id, root)
		r := ses.Finish()
		tr.end(sp)

		var reply bytes.Buffer
		sp = tr.begin("serve.reply_encode", id, root)
		err := json.NewEncoder(&reply).Encode(serve.Reply{Event: serve.EventResult, OK: r.OK, Words: r.Words, Cost: r.Cost, Frames: len(u.Frames)})
		tr.end(sp)
		if err != nil {
			return err
		}
		tr.end(root)

		// The features went through JSON text and back: the transcript
		// must still be the reference, bit for bit.
		replay.add([]sessionOutcome{{frames: len(u.Frames), mismatch: !refs[i].matches(r.Words, r.Cost, r.OK)}})

		// Allocation is read around an unspanned search of the same
		// scores, so the tracer's own appends are not counted.
		var m0, m1 runtime.MemStats
		if err := ses.Restart(cfg); err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		for t := range inputs {
			if err := ses.PushFrame(scores[t]); err != nil {
				return err
			}
		}
		ses.Finish()
		runtime.ReadMemStats(&m1)
		allocPerFrame = append(allocPerFrame, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(u.Frames)))
	}
	res.tally.merge(replay)

	sessions := tr.sessions()
	perFrame := func(name, stage string) {
		d := stageUS(sessions, replayID, stage, true)
		res.set(name, median(d), len(d))
	}
	perFrame("serve.wire_encode_us", "serve.wire_encode")
	perFrame("serve.wire_decode_us", "serve.wire_decode")
	perFrame("dnn.forward_us", "dnn.forward")
	perFrame("decoder.push_us", "decoder.push")
	d := stageUS(sessions, replayID, "decoder.finish", false)
	res.set("decoder.finish_us", median(d), len(d))
	d = stageUS(sessions, replayID, "serve.reply_encode", false)
	res.set("serve.reply_encode_us", median(d), len(d))
	res.set("serve.wire_bytes_per_frame", float64(wireBytes)/float64(frames), int(frames))
	res.set("decoder.alloc_b_per_frame", median(allocPerFrame), len(allocPerFrame))

	// Exact counts from the reference decode's own statistics: the
	// paper's dark-side signal. They must repeat bit for bit.
	var hyps, sumActive, overflows, collisions int64
	maxActive := 0
	for _, r := range refs {
		hyps += r.Stats.Hypotheses
		sumActive += r.Stats.SumActive
		overflows += r.Stats.Store.Overflows
		collisions += r.Stats.Store.Collisions
		if r.Stats.MaxActive > maxActive {
			maxActive = r.Stats.MaxActive
		}
	}
	res.set("decoder.hyps_per_frame", float64(hyps)/float64(frames), int(frames))
	res.set("decoder.mean_active", float64(sumActive)/float64(frames), int(frames))
	res.set("decoder.max_active", float64(maxActive), int(frames))
	res.set("core.store_overflows", float64(overflows), int(frames))
	res.set("core.store_collisions", float64(collisions), int(frames))

	// The simulator: both probed decodes, and the same decodes without
	// the probe. Cycles are simulated and exact; the host cost of
	// simulating is the difference in search time.
	w, err := eng.newOfflineWorker()
	if err != nil {
		return err
	}
	var cycles [2]int64
	for i := range e.corpus.Utts {
		u := &e.corpus.Utts[i]
		out, err := w.run(u, fmt.Sprintf("%s%d", probeID, i), true, tr)
		if err != nil {
			return err
		}
		cycles[0] += out.cycles[0]
		cycles[1] += out.cycles[1]
		if _, err := w.run(u, fmt.Sprintf("%s%d", noProbeID, i), false, tr); err != nil {
			return err
		}
	}
	res.set("viterbisim.cycles_per_frame_unbounded", float64(cycles[0])/float64(frames), int(frames))
	res.set("viterbisim.cycles_per_frame_nbest", float64(cycles[1])/float64(frames), int(frames))
	sessions = tr.sessions()
	var host float64
	for _, store := range offlineStores {
		host += median(stageUS(sessions, probeID, "decoder.search."+store, true)) - median(stageUS(sessions, noProbeID, "decoder.search_noprobe."+store, true))
	}
	res.set("viterbisim.host_us_per_frame", host, len(e.corpus.Utts))
	return nil
}

// spanCalls times calls of fn, one root span each, and returns the
// median duration in microseconds.
func spanCalls(tr *tracer, name string, calls int, fn func()) float64 {
	for i := 0; i < calls; i++ {
		sp := tr.begin(name, "", -1)
		fn()
		tr.end(sp)
	}
	return median(tr.durationsUS(name))
}

const batchRows = 16

// probeKernels times the batched forward on the workload's own plan
// and the four kernels on the paper-sized 360-2000-2000-440 stack of
// BenchmarkForward. The small model is cache-resident, so the paper
// stack is where a bandwidth-bound kernel shows until a paper-scale
// workload exists.
func (e *env) probeKernels(eng *engine, tr *tracer, res *result) error {
	var rows [][]float64
	for i := range e.corpus.Utts {
		rows = append(rows, e.corpus.Utts[i].Frames...)
	}
	dst := make([][]float64, batchRows)
	for r := range dst {
		dst[r] = make([]float64, eng.plan.OutDim())
	}
	ex := eng.plan.NewExec()
	calls := len(rows) / batchRows
	if calls > 200 {
		calls = 200
	}
	at := 0
	us := spanCalls(tr, "dnn.forward_b16", calls, func() {
		ex.LogPosteriorsBatch(dst, rows[at:at+batchRows])
		at += batchRows
	})
	res.set("dnn.forward_b16_us_per_frame", us/batchRows, calls)

	paperStack := func() *dnn.Network {
		rng := mat.NewRNG(11)
		return dnn.NewNetwork(
			dnn.NewFC("fc1", 360, 2000, 0.05, rng),
			dnn.NewFC("fc2", 2000, 2000, 0.05, rng),
			dnn.NewFC("fc3", 2000, 440, 0.05, rng),
		)
	}
	dense := paperStack()
	csr := paperStack()
	q, err := pruning.CalibrateQuality(csr, 0.9)
	if err != nil {
		return err
	}
	pruning.Prune(csr, q)
	bsr := paperStack()
	if q, err = pruning.CalibrateBlockQuality(bsr, 8, 0.9); err != nil {
		return err
	}
	pruning.BlockPrune(bsr, q, 8)

	in := make([]float64, dense.InDim())
	mat.NewRNG(3).FillNorm(in, 0, 1)
	out := make([]float64, dense.OutDim())
	ins := make([][]float64, batchRows)
	outs := make([][]float64, batchRows)
	for r := range ins {
		ins[r] = make([]float64, dense.InDim())
		mat.NewRNG(int64(100+r)).FillNorm(ins[r], 0, 1)
		outs[r] = make([]float64, dense.OutDim())
	}
	for _, k := range []struct {
		metric, backend string
		net             *dnn.Network
		calls           int
		batched         bool
	}{
		{"dnn.paper_dense_us", "dense", dense, 40, false},
		{"sparse.paper_csr_p90_us", "sparse", csr, 100, false},
		{"sparse.paper_bsr_p90_us", "bsr", bsr, 100, false},
		{"qkern.paper_int8_us", "int8", dense, 40, false},
		{"dnn.paper_dense_b16_us_per_frame", "dense", dense, 6, true},
	} {
		// Kernels are only ever named by string: one that is gone
		// reads 0 here instead of breaking the benchmark.
		backend, err := dnn.ParseBackend(k.backend)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  %s: %v; reported as 0\n", k.metric, err)
			res.set(k.metric, 0, 0)
			continue
		}
		pex := dnn.Compile(k.net, dnn.PlanConfig{Backend: backend}).NewExec()
		if k.batched {
			us := spanCalls(tr, k.metric, k.calls, func() { pex.LogPosteriorsBatch(outs, ins) })
			res.set(k.metric, us/batchRows, k.calls)
		} else {
			res.set(k.metric, spanCalls(tr, k.metric, k.calls, func() { pex.LogPosteriors(out, in) }), k.calls)
		}
	}
	return nil
}

func (p *phases) merge(o phases) {
	p.soloP50 = append(p.soloP50, o.soloP50...)
	p.satFPS = append(p.satFPS, o.satFPS...)
	p.satCPU = append(p.satCPU, o.satCPU...)
	p.satLat = append(p.satLat, o.satLat...)
	p.soloStalled += o.soloStalled
	p.soloSessions += o.soloSessions
	p.frames += o.frames
	p.tally.merge(o.tally)
}

// sideBySide runs the program under test twice at once — plain, and
// traced (servers under -metrics-addr so internal/obs is on, client
// calls spanned) — alternating one solo+saturation round each for as
// long as another turn fits into `seconds`. The plain rounds give the
// tail diagnostics and the solo median the ledger is checked against;
// the traced ones give the client-side spans and the servers' own
// batcher metrics; the ratio of the two throughputs is what tracing
// costs.
func (e *env) sideBySide(seconds float64, tr *tracer, res *result) (soloP50 float64, err error) {
	plain, err := e.open("plain", false, 1)
	if err != nil {
		return 0, err
	}
	traced := plain // offline-sim: one pool, spans switched per round
	if !e.w.Offline {
		if traced, err = e.open("traced", true, 1); err != nil {
			plain.abort()
			return 0, err
		}
	}
	drained := false
	defer func() {
		if !drained { // an error path: no drain, and killing twice is harmless
			plain.abort()
			traced.abort()
		}
	}()
	n := len(e.corpus.Utts)
	res.tally.add(plain.round(n, 1, nil).outcomes)
	if traced != plain {
		res.tally.add(traced.round(n, 1, nil).outcomes)
	}

	routerCPU := func() (float64, error) {
		if plain.srv == nil || plain.srv.router == nil {
			return 0, nil
		}
		return plain.srv.router.cpuSeconds()
	}
	// One round pair per target and turn; saturation rounds are short
	// here because every frame pushed leaves a span behind, and these
	// numbers are diagnostics, not gated.
	one := e.sz
	one.MinRounds = 1
	one.SatPasses = 2
	var pp, pt phases
	var routerSeconds float64
	begin := time.Now()
	for r := 0; r < 1 || anotherFits(begin, r, seconds); r++ {
		cpu0, err := routerCPU()
		if err != nil {
			return 0, err
		}
		p, err := runPhases(plain, one, n, e.w.conns(), 0, nil)
		if err != nil {
			return 0, err
		}
		cpu1, err := routerCPU()
		if err != nil {
			return 0, err
		}
		routerSeconds += cpu1 - cpu0
		pp.merge(p)
		if p, err = runPhases(traced, one, n, e.w.conns(), 0, tr); err != nil {
			return 0, err
		}
		pt.merge(p)
	}
	res.tally.merge(pp.tally)
	res.tally.merge(pt.tally)

	res.set("serve.frame_p95_us", mat.Quantile(pp.satLat, 0.95), len(pp.satLat))
	res.set("serve.frame_p99_us", mat.Quantile(pp.satLat, 0.99), len(pp.satLat))
	res.set("serve.sat_frame_p50_us", median(pp.satLat), len(pp.satLat))
	res.set("serve.stalled_session_ratio", float64(pp.soloStalled)/float64(pp.soloSessions), pp.soloSessions)
	res.set("obs.overhead_ratio", median(pt.satFPS)/median(pp.satFPS), len(pt.satFPS))
	push := stageUS(tr.sessions(), roundID, "serve.client_push", true)
	res.set("serve.client_push_us", median(push), len(push))

	// The router's cost: its own CPU per routed frame, and the latency
	// a hop adds — each utterance once through the router and once
	// straight to a backend, unloaded, paired.
	res.set("router.cpu_us_per_frame", 0, 0)
	res.set("router.hop_us_per_frame", 0, 0)
	if plain.srv != nil && plain.srv.router != nil {
		res.set("router.cpu_us_per_frame", routerSeconds*1e6/float64(pp.frames), pp.frames)
		var hop []float64
		for i := range e.corpus.Utts {
			id := fmt.Sprintf("%s%d", roundID, i)
			routed := runSession(plain.srv.addr, id, &e.corpus.Utts[i], plain.refs[i], nil)
			direct := runSession(plain.srv.procs[i%2].addr, id, &e.corpus.Utts[i], plain.refs[i], nil)
			res.tally.add([]sessionOutcome{routed, direct})
			if routed.err == nil && direct.err == nil {
				hop = append(hop, routed.usPerFrame-direct.usPerFrame)
			}
		}
		res.set("router.hop_us_per_frame", median(hop), len(hop))
	}

	// The servers' own view of the batcher, read from /metrics.
	res.set("serve.batch_size_mean", 0, 0)
	res.set("serve.queue_wait_us_mean", 0, 0)
	res.set("serve.flush_full_ratio", 0, 0)
	if traced.srv != nil {
		if err := scrapeBatcher(traced.srv.metricsAddr, res); err != nil {
			return 0, err
		}
	}

	drained = true
	err = plain.close()
	if traced != plain {
		if terr := traced.close(); err == nil {
			err = terr
		}
	}
	return median(pp.soloP50), err
}

// scrapeBatcher reads serve.batch_size, serve.queue_wait_seconds and
// serve.batch_flush_reason from every backend's /metrics and sums
// them. A name that is no longer registered leaves its metric at 0.
func scrapeBatcher(addrs []string, res *result) error {
	type histogram struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	}
	var batches, batchFrames, waits, waitSeconds, flushes, full float64
	for _, addr := range addrs {
		var snap struct {
			Metrics struct {
				BatchSize *histogram `json:"serve.batch_size"`
				QueueWait *histogram `json:"serve.queue_wait_seconds"`
				Flush     *struct {
					Total  float64            `json:"total"`
					Values map[string]float64 `json:"values"`
				} `json:"serve.batch_flush_reason"`
			} `json:"metrics"`
		}
		client := http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			return fmt.Errorf("scraping %s: %w", addr, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("scraping %s: %w", addr, err)
		}
		if h := snap.Metrics.BatchSize; h != nil {
			batches += h.Count
			batchFrames += h.Sum
		}
		if h := snap.Metrics.QueueWait; h != nil {
			waits += h.Count
			waitSeconds += h.Sum
		}
		if f := snap.Metrics.Flush; f != nil {
			flushes += f.Total
			full += f.Values["full"]
		}
	}
	if batches > 0 {
		res.set("serve.batch_size_mean", batchFrames/batches, int(batches))
	}
	if waits > 0 {
		res.set("serve.queue_wait_us_mean", waitSeconds*1e6/waits, int(waits))
	}
	if flushes > 0 {
		res.set("serve.flush_full_ratio", full/flushes, int(flushes))
	}
	return nil
}

// ledger prints where the unloaded frame's time goes and checks that
// the workload still separates the layers it was built to separate.
// For a served workload the stages are the serial chain wire → forward
// → search → reply from the replay, and what is left of the solo
// median is serve's own overhead; for offline-sim they are the
// worker's own spans. Shares are of the solo frame_p50_us and sum to
// 100% with the unaccounted share explicit; the rules are on shares of
// accounted time, so they do not move with the residual.
func (e *env) ledger(soloP50 float64, tr *tracer, res *result) {
	type stage struct {
		name string
		us   float64
	}
	var stages []stage
	frames := float64(e.corpus.Frames) / float64(len(e.corpus.Utts))
	if e.w.Offline {
		sessions := tr.sessions()
		stages = []stage{{"forward", median(stageUS(sessions, roundID, "dnn.forward", true))}}
		var search float64
		for _, store := range offlineStores {
			search += median(stageUS(sessions, roundID, "decoder.search."+store, true))
		}
		stages = append(stages, stage{"search+sim", search})
		res.set("serve.overhead_us_per_frame", soloP50-stages[0].us-search, len(e.corpus.Utts))
	} else {
		search := res.values["decoder.push_us"] + res.values["decoder.finish_us"]/frames
		stages = []stage{
			{"wire encode", res.values["serve.wire_encode_us"]},
			{"wire decode", res.values["serve.wire_decode_us"]},
			{"forward", res.values["dnn.forward_us"]},
			{"search", search},
			{"reply encode", res.values["serve.reply_encode_us"] / frames},
		}
		res.set("serve.overhead_us_per_frame", soloP50-res.values["dnn.forward_us"]-search, len(e.corpus.Utts))
	}
	var accounted float64
	for _, s := range stages {
		accounted += s.us
	}
	res.set("serve.unaccounted_ratio", (soloP50-accounted)/soloP50, len(e.corpus.Utts))

	share := map[string]float64{}
	lines := []string{""}
	lines = append(lines, fmt.Sprintf("  %-14s %10s %9s %12s", "stage", "us/frame", "of p50", "of accounted"))
	for _, s := range stages {
		share[s.name] = s.us / accounted
		lines = append(lines, fmt.Sprintf("  %-14s %10.2f %8.1f%% %11.1f%%", s.name, s.us, 100*s.us/soloP50, 100*s.us/accounted))
	}
	lines = append(lines, fmt.Sprintf("  %-14s %10.2f %8.1f%%", "unaccounted", soloP50-accounted, 100*(soloP50-accounted)/soloP50))
	lines = append(lines, fmt.Sprintf("  %-14s %10.2f %8.1f%%", "solo p50", soloP50, 100.0))
	ok := true
	for _, rule := range e.w.Rules {
		if !e.sz.LedgerRules {
			break
		}
		got := share[rule.Stage]
		verdict := "ok"
		if got < rule.Min || (rule.Max > 0 && got > rule.Max) {
			verdict, ok = "FAILED", false
		}
		lines = append(lines, fmt.Sprintf("  rule: %s is %.1f%% of accounted time, want %s: %s", rule.Stage, 100*got, rule.want(), verdict))
	}
	lines[0] = ledgerHeader(e.w.Name, ok)
	res.ledger = lines
}

// ledgerHeader is the first line of a ledger: the one place its
// verdict is written, and where ledgerOK reads it back.
func ledgerHeader(workload string, ok bool) string {
	if ok {
		return fmt.Sprintf("ledger %s: ok", workload)
	}
	return fmt.Sprintf("ledger %s: FAILED — the workload no longer separates the layers it was built to separate", workload)
}
