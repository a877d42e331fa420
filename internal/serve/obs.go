package serve

import "repro/internal/obs"

// Serving-path metrics (see docs/OBSERVABILITY.md for the catalogue
// and docs/SERVING.md for how they relate to admission control). Like
// every other instrumented package, updates are dropped at one atomic
// load's cost while observation is disabled and none of them feed back
// into decoding — transcripts are bit-identical with metrics on or off.
var (
	obsSessionsActive = obs.NewGauge("serve.sessions_active", "sessions",
		"decode sessions currently admitted and in flight")
	obsSessionsTotal = obs.NewCounter("serve.sessions_total", "sessions",
		"decode sessions admitted since start")
	obsRejects = obs.NewCounter("serve.rejects", "sessions",
		"session starts rejected (at capacity, draining, or unknown model)")
	obsModelSessions = obs.NewCounterFamily("serve.model_sessions", "sessions", "model",
		"decode sessions admitted, per model variant")
	obsModelFrames = obs.NewCounterFamily("serve.model_frames", "frames", "model",
		"acoustic frames scored, per model variant")
	obsErrors = obs.NewCounter("serve.errors", "errors",
		"sessions ended by a protocol or I/O error")
	obsDeadlineExceeded = obs.NewCounter("serve.deadline_exceeded", "sessions",
		"sessions aborted by the per-request deadline or idle timeout")
	obsRequestTime = obs.NewTimer("serve.request_seconds",
		"wall-clock seconds per session, admission to final result")
)
