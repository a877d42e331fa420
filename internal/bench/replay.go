package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/wer"
)

// ReplayOptions parameterize one open-loop replay run.
type ReplayOptions struct {
	// Addr is the asrserve or asrrouter endpoint.
	Addr string
	// Model selects the server's registered variant ("" = default).
	Model string
	// MaxAttempts bounds admission retries per session: a capacity or
	// draining reject is retried after the server's retry-after hint
	// until the session is admitted or the attempts are spent (then
	// the session counts as failed — shed load). Permanent rejects
	// fail immediately. Default 8.
	MaxAttempts int
	// Deadline is the per-session deadline sent to the server (0 = the
	// server's default).
	Deadline time.Duration
	// DialTimeout bounds each TCP connect (default 5s).
	DialTimeout time.Duration
}

func (o *ReplayOptions) fillDefaults() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
}

// RunStats is one replay run's accounting: offered load, completion
// and reject/retry counts, sustained throughput, transcript quality,
// and nearest-rank latency tails. The wall-clock latencies vary run
// to run; every other field is deterministic for a fixed corpus,
// schedule, and healthy server (pinned by TestSweepDeterministicFields).
type RunStats struct {
	// Offered load.
	RateSessionsPerSec float64 `json:"rate_sessions_per_sec"`
	Utts               int     `json:"utts"`

	// Outcome accounting.
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Rejects   int64  `json:"rejects"`    // admission rejects observed (pre-retry)
	RetriedOK int64  `json:"retried_ok"` // sessions that succeeded after >= 1 reject
	Frames    int64  `json:"frames"`     // acoustic frames decoded by completed sessions
	FirstErr  string `json:"first_error,omitempty"`

	// Measured throughput.
	WallSeconds         float64 `json:"wall_seconds"`
	SessionsPerSec      float64 `json:"sessions_per_sec"`
	FramesPerSec        float64 `json:"frames_per_sec"`
	FramesPerSecPerCore float64 `json:"frames_per_sec_per_core"`

	// Transcript quality over completed sessions (identical to
	// asrdecode on the same model — serving never changes decode
	// output, so this doubles as an end-to-end correctness check).
	WERPercent float64 `json:"wer_percent"`

	// Session is the dial→final-result latency distribution; Frame is
	// the same distribution normalized per decoded frame (session
	// latency / frames), the per-frame service cost a streaming client
	// experiences including admission, wire, and backpressure.
	Session Latency `json:"session"`
	Frame   Latency `json:"frame"`

	// Sustained is set by Sweep: Failed == 0 and Session.P99MS within
	// the SLO.
	Sustained bool `json:"sustained"`
}

// Replay streams the first n corpus utterances (n <= 0 or beyond the
// corpus = all) against opts.Addr on the deterministic Poisson
// schedule Schedule(n, rate, schedSeed): session i dials at its
// scheduled offset regardless of how many earlier sessions are still
// in flight (open loop). It blocks until every session completes or
// fails and returns the run's accounting.
func Replay(c *Corpus, n int, rate float64, schedSeed int64, opts ReplayOptions) *RunStats {
	opts.fillDefaults()
	if n <= 0 || n > len(c.Utts) {
		n = len(c.Utts)
	}
	offsets := Schedule(n, rate, schedSeed)

	type outcome struct {
		words   []int
		frames  int
		latency time.Duration
		retried bool
		err     error
	}
	outcomes := make([]outcome, n)
	var rejects atomic.Int64

	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Until(t0.Add(offsets[i])))
			frames := c.Spliced(i)
			start := time.Now()
			rep, retried, err := streamSession(c.Utts[i].ID, frames, opts, &rejects)
			outcomes[i] = outcome{
				words: rep.Words, frames: rep.Frames,
				latency: time.Since(start), retried: retried, err: err,
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)

	stats := &RunStats{
		RateSessionsPerSec: rate,
		Utts:               n,
		Rejects:            rejects.Load(),
		WallSeconds:        wall.Seconds(),
	}
	var corpus wer.Corpus
	sessionLat := make([]time.Duration, 0, n)
	frameMS := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		o := &outcomes[i]
		if o.err != nil {
			stats.Failed++
			if stats.FirstErr == "" {
				stats.FirstErr = fmt.Sprintf("%s: %v", c.Utts[i].ID, o.err)
			}
			continue
		}
		stats.Completed++
		stats.Frames += int64(o.frames)
		if o.retried {
			stats.RetriedOK++
		}
		corpus.Add(c.Utts[i].Words, o.words)
		sessionLat = append(sessionLat, o.latency)
		if o.frames > 0 {
			frameMS = append(frameMS, float64(o.latency.Nanoseconds())/1e6/float64(o.frames))
		}
	}
	if wall > 0 {
		stats.SessionsPerSec = float64(stats.Completed) / wall.Seconds()
		stats.FramesPerSec = float64(stats.Frames) / wall.Seconds()
		stats.FramesPerSecPerCore = stats.FramesPerSec / float64(runtime.GOMAXPROCS(0))
	}
	if corpus.RefWords > 0 {
		stats.WERPercent = corpus.Rate()
	}
	stats.Session = SummarizeLatency(sessionLat)
	stats.Frame = SummarizeLatencyMS(frameMS)
	return stats
}

// streamSession pushes one utterance through a serve session with
// bounded admission retries, honoring the server's retry-after hint
// verbatim (no jitter — the backoff pattern stays reproducible).
// It reports whether the session was rejected before succeeding.
func streamSession(id string, frames [][]float64, opts ReplayOptions, rejects *atomic.Int64) (serve.Reply, bool, error) {
	sopts := serve.SessionOptions{
		ID: id, Model: opts.Model,
		Deadline: opts.Deadline, DialTimeout: opts.DialTimeout,
	}
	for attempt := 0; ; attempt++ {
		cs, err := serve.Dial(opts.Addr, sopts)
		var rej *serve.RejectedError
		if errors.As(err, &rej) && !rej.Permanent() {
			rejects.Add(1)
			if attempt+1 >= opts.MaxAttempts {
				return serve.Reply{}, false, fmt.Errorf("rejected %d times: %w", opts.MaxAttempts, err)
			}
			backoff := rej.RetryAfter
			if backoff <= 0 {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		if err != nil {
			return serve.Reply{}, attempt > 0, err
		}
		for _, fr := range frames {
			if err := cs.PushFrame(fr); err != nil {
				cs.Close()
				return serve.Reply{}, attempt > 0, err
			}
		}
		rep, _, err := cs.Finish()
		cs.Close()
		return rep, attempt > 0, err
	}
}

// Await redials addr until the server accepts (or politely rejects) a
// probe session, or the timeout passes — so a harness can launch
// server and load back to back.
func Await(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		cs, err := serve.Dial(addr, serve.SessionOptions{ID: "probe", DialTimeout: time.Second})
		if err == nil {
			cs.Close()
			return nil
		}
		var rej *serve.RejectedError
		if errors.As(err, &rej) && !rej.Permanent() {
			return nil // up, just busy
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: server at %s not reachable after %v: %w", addr, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
