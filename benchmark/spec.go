package main

import (
	"fmt"
	"runtime"

	"repro/internal/asr"
)

// workload is one row of the benchmark: a server topology, a model, a
// store and a traffic mix, chosen so that each layer of the frame's
// life dominates once and is bypassed once (README.md has the ledger).
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Model   string // which trained model: p0, p90 or block90
	Backend string // -backend / dnn.ParseBackend value; kernels are only ever named by string
	Store   string // -store value for the served decode
	Mix     [4]int // corpus weights: baseline, noisy, wide-vocab, long-utt
	Conns   int    // saturation-phase connections (0 = one worker per core)
	Fleet   bool   // asrrouter in front of two asrserve instead of one asrserve
	Offline bool   // no servers: in-process score + probed decode

	// Rules are the ledger self-check: the shares of accounted time
	// that make this workload the one where a layer dominates or is
	// bypassed. A traced run that breaks one says so loudly.
	Rules []ledgerRule
}

// ledgerRule bounds one ledger stage's share of accounted time.
type ledgerRule struct {
	Stage    string
	Min, Max float64 // Max 0 = no upper bound
}

func (r ledgerRule) want() string {
	if r.Max > 0 {
		return fmt.Sprintf("at most %.0f%%", 100*r.Max)
	}
	return fmt.Sprintf("at least %.0f%%", 100*r.Min)
}

var (
	mixDefault = [4]int{4, 2, 1, 1}
	mixNoisy   = [4]int{1, 4, 2, 1}
)

// servedConns is the saturation-phase connection count of every served
// workload. With one connection per core a session that sits out the
// kernel's ~200 ms zero-window probe timer (README.md, "The stall
// finding") leaves a core idle, and frames / wall then measures how
// many sessions happened to stall: 9 400 - 17 800 frames/s between
// identical 2.5 s rounds on direct-bsr-noisy. With 16 connections the
// other sessions fill that time and frames / wall is the server's
// capacity, steady to ~2 % per round.
const servedConns = 16

var workloads = []workload{
	{
		Name: "direct-dense", Model: "p0", Backend: "auto", Store: "unbounded", Mix: mixDefault, Conns: servedConns,
		Rules: []ledgerRule{{Stage: "forward", Min: 0.50}, {Stage: "search", Max: 0.10}},
		Why:   "one asrserve, dense p0 model: forward is ~2/3 of the frame, so kernel work shows here and search or wire work barely moves it",
	},
	{
		Name: "direct-bsr-noisy", Model: "block90", Backend: "auto", Store: "nbest", Mix: mixNoisy, Conns: servedConns,
		Rules: []ledgerRule{{Stage: "forward", Max: 0.35}},
		Why:   "one asrserve, block-pruned p90 on bsr with the N-best store and a noisy mix: forward shrinks, so wire and serve overhead dominate and search is largest",
	},
	{
		Name: "fleet-fanin", Model: "p90", Backend: "auto", Store: "unbounded", Mix: mixDefault, Conns: servedConns, Fleet: true,
		Why: "asrrouter over two asrserve on CSR p90: the same 16 connections split over two backends, so the router splice and cross-process fan-in are on the path",
	},
	{
		Name: "offline-sim", Model: "p90", Backend: "auto", Store: "unbounded", Mix: mixNoisy, Offline: true,
		Rules: []ledgerRule{{Stage: "search+sim", Min: 0.40}},
		Why:   "no sockets or batcher: single-frame scoring plus two probed decodes (unbounded, N-best) as darkside runs them, so search and simulator are half the time",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// conns is the saturation-phase connection (or worker) count.
func (w workload) conns() int {
	if w.Conns > 0 {
		return w.Conns
	}
	return runtime.NumCPU()
}

// metricSpec names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees. fail_ratio is not in the
// list because a metric must never be 0: failures travel in the
// attempted/failed counts of every result line instead.
//
// A bound has to hold the spread between runs of the same code. Each
// is twice the widest quartile distance seen over ten runs on this
// 2-core VM, rounded to a multiple of 5 % and capped at the 25 % a
// bound may be (README.md, "Bounds"; the reports under out/): the
// host's own speed wanders by more than the issue's 5 % between one
// 24 s run and the next, offline-sim's pure computation included, and
// no phase inside a run outlasts that.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "frames/s", "higher", 0.20},
	{"frame_p50_us", "us", "lower", 0.20},
	{"cpu_us_per_frame", "us", "lower", 0.20},
	{"mem_peak_mb", "MB", "lower", 0.10},
}

// perLayer is the from-outside stage ledger (README.md says how each
// is measured and which end-to-end metric it should move). A metric
// that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{Name: "serve.client_push_us", Unit: "us", Better: "lower"},
	{Name: "serve.wire_bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "serve.wire_encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.wire_decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.reply_encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "serve.unaccounted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.frame_p95_us", Unit: "us", Better: "lower"},
	{Name: "serve.frame_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.sat_frame_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.stalled_session_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "frames", Better: "higher"},
	{Name: "serve.queue_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "serve.flush_full_ratio", Unit: "ratio", Better: "higher"},
	{Name: "router.hop_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "router.cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "registry.register_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "dnn.load_ms", Unit: "ms", Better: "lower"},
	{Name: "dnn.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "wfst.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "wfst.states", Unit: "count", Better: "lower"},
	{Name: "wfst.arcs", Unit: "count", Better: "lower"},
	{Name: "dnn.forward_us", Unit: "us", Better: "lower"},
	{Name: "dnn.forward_b16_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "dnn.kernels", Unit: "count", Better: "lower"},
	{Name: "dnn.weight_bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "dnn.flops_per_frame", Unit: "count", Better: "lower"},
	{Name: "dnn.paper_dense_us", Unit: "us", Better: "lower"},
	{Name: "sparse.paper_csr_p90_us", Unit: "us", Better: "lower"},
	{Name: "sparse.paper_bsr_p90_us", Unit: "us", Better: "lower"},
	{Name: "qkern.paper_int8_us", Unit: "us", Better: "lower"},
	{Name: "dnn.paper_dense_b16_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "decoder.push_us", Unit: "us", Better: "lower"},
	{Name: "decoder.finish_us", Unit: "us", Better: "lower"},
	{Name: "decoder.alloc_b_per_frame", Unit: "B", Better: "lower"},
	{Name: "decoder.hyps_per_frame", Unit: "count", Better: "lower"},
	{Name: "decoder.mean_active", Unit: "count", Better: "lower"},
	{Name: "decoder.max_active", Unit: "count", Better: "lower"},
	{Name: "core.store_overflows", Unit: "count", Better: "lower"},
	{Name: "core.store_collisions", Unit: "count", Better: "lower"},
	{Name: "viterbisim.cycles_per_frame_unbounded", Unit: "cycles", Better: "lower"},
	{Name: "viterbisim.cycles_per_frame_nbest", Unit: "cycles", Better: "lower"},
	{Name: "viterbisim.host_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// sizing fixes how much work one invocation does. Rounds are whole
// passes over the corpus, so every round replays exactly the same
// utterances and a per-frame number means the same thing on every
// commit; only the number of rounds follows -seconds.
type sizing struct {
	Scale      asr.Scale
	Utts       int // corpus size; a multiple of 8 so both mixes split exactly
	SoloPasses int // corpus passes per solo round (1 connection)
	SatPasses  int // corpus passes per saturation round (C connections)
	ColdStarts int // server cold starts sampled for setup_s
	MinRounds  int // rounds of each phase even when -seconds is shorter
	// LedgerRules says whether the workloads' ledger rules apply: they
	// predict shares at the full sizing's scale, not at tiny.
	LedgerRules bool
}

func fullSizing() sizing {
	return sizing{Scale: asr.ScaleSmall(), Utts: 48, SoloPasses: 1, SatPasses: 4, ColdStarts: 50, MinRounds: 3, LedgerRules: true}
}

// smokeSizing is the seconds-long shape the tests run.
func smokeSizing() sizing {
	return sizing{Scale: asr.ScaleTiny(), Utts: 8, SoloPasses: 1, SatPasses: 1, ColdStarts: 1, MinRounds: 1}
}

// realTimeUSPerFrame is the 10 ms frame period: a session decoded
// slower than this is counted as failed.
const realTimeUSPerFrame = 10000.0
