// Package bench is the corpus-scale throughput harness: it measures
// the serving stack (internal/serve behind cmd/asrserve or
// cmd/asrrouter) under realistic concurrent load, where the paper's
// dark side actually bites. The single-utterance benches
// (BENCH_dnn.json, BENCH_decode.json) prove the kernels and the
// decoder hot path; this package answers the fleet-level question they
// cannot: how many frames per second per core does the service
// sustain before the tail latency blows past an SLO?
//
// The harness has three deterministic layers:
//
//   - Corpus (corpus.go): a large multi-speaker utterance set drawn
//     from mixed scenario profiles — baseline, noisy, wide-vocab,
//     long-utt, the same world-bending dimensions as
//     experiments.Scenarios / asr.System.Derive — generated
//     bit-reproducibly from one seed (pinned by Hash).
//   - Arrival schedule (arrival.go): open-loop Poisson arrivals whose
//     inter-arrival gaps come from a seeded RNG, not wall-clock
//     randomness, so the offered load pattern of a run is replayable.
//   - Replay and sweep (replay.go, ladder.go): stream the corpus at a
//     controlled rate over the NDJSON wire protocol with reject/retry
//     accounting and nearest-rank (mat.Quantile) latency tails, and
//     walk a rate ladder to locate the saturation knee — the highest
//     rate whose p99 session latency still meets the SLO with no
//     failed sessions.
//
// Wall-clock latencies are inherently noisy; everything else — the
// corpus, the schedule, the utterance→profile assignment, the frame
// counts, and the WER of the returned transcripts — is bit-reproducible from the seeds, and the
// determinism tests pin exactly that split. cmd/asrbench is the CLI;
// docs/BENCHMARKING.md is the normative description and the
// BENCH_serve.json field reference; ci.sh distils a tiny run into the
// repo's fleet-level acceptance gate.
package bench

import (
	"fmt"
	"time"

	"repro/internal/mat"
)

// Latency summarizes a latency sample in milliseconds. Quantiles are
// nearest-rank (mat.Quantile): every reported value is an observed
// sample, the same definition the asr pipeline's tail reports use.
type Latency struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// SummarizeLatency reduces a duration sample to its Latency summary.
// The zero Latency is returned for an empty sample.
func SummarizeLatency(samples []time.Duration) Latency {
	if len(samples) == 0 {
		return Latency{}
	}
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	return SummarizeLatencyMS(ms)
}

// SummarizeLatencyMS is SummarizeLatency over samples already in
// milliseconds.
func SummarizeLatencyMS(ms []float64) Latency {
	if len(ms) == 0 {
		return Latency{}
	}
	return Latency{
		MeanMS: mat.Mean(ms),
		P50MS:  mat.Quantile(ms, 0.50),
		P95MS:  mat.Quantile(ms, 0.95),
		P99MS:  mat.Quantile(ms, 0.99),
		MaxMS:  mat.Quantile(ms, 1),
	}
}

// String renders the summary the way the CLI reports print it.
func (l Latency) String() string {
	return fmt.Sprintf("mean %.1fms  p50 %.1fms  p95 %.1fms  p99 %.1fms  max %.1fms",
		l.MeanMS, l.P50MS, l.P95MS, l.P99MS, l.MaxMS)
}
