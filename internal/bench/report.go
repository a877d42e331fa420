package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CorpusInfo is the corpus provenance block of a report: enough to
// regenerate (seed + spec live in the flags) and to verify (hash).
type CorpusInfo struct {
	Utts     int            `json:"utts"`
	Frames   int            `json:"frames"`
	Seed     int64          `json:"seed"`
	Hash     string         `json:"hash"` // FNV-1a of the full content, hex
	Profiles map[string]int `json:"profiles"`
}

// Info summarizes the corpus for a report.
func (c *Corpus) Info() CorpusInfo {
	return CorpusInfo{
		Utts:     len(c.Utts),
		Frames:   c.TotalFrames(),
		Seed:     c.Spec.Seed,
		Hash:     fmt.Sprintf("%016x", c.Hash()),
		Profiles: c.ProfileCounts(),
	}
}

// Report is the BENCH_serve.json document: the rate ladder and the
// saturation knee. The flat gate fields at the top level exist so
// ci.sh can enforce the fleet-level floor with a line parser:
// sustained_frames_per_sec (and /core) is the knee rung's measured
// throughput. docs/BENCHMARKING.md is the field reference.
type Report struct {
	Scale        string     `json:"scale"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	Corpus       CorpusInfo `json:"corpus"`
	ScheduleSeed int64      `json:"schedule_seed"`
	SLOMS        float64    `json:"slo_ms"`
	PerRate      int        `json:"utts_per_rate"`

	Ladder     []*RunStats `json:"ladder"`
	Saturation Saturation  `json:"saturation"`

	// Flat gate fields, derived by Finalize.
	SustainedFramesPerSec        float64 `json:"sustained_frames_per_sec"`
	SustainedFramesPerSecPerCore float64 `json:"sustained_frames_per_sec_per_core"`
}

// Finalize derives the flat gate fields from the structured results.
func (r *Report) Finalize() {
	r.SustainedFramesPerSec = r.Saturation.FramesPerSec
	r.SustainedFramesPerSecPerCore = r.Saturation.FramesPerSecPerCore
}

// WriteJSON emits the report as indented JSON (the BENCH_serve.json
// format).
func (r *Report) WriteJSON(w io.Writer) error {
	r.Finalize()
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// WriteText renders the human-readable summary the CLI prints.
func (r *Report) WriteText(w io.Writer) {
	r.Finalize()
	fmt.Fprintf(w, "corpus: %d utts, %d frames, seed %d, hash %s\n",
		r.Corpus.Utts, r.Corpus.Frames, r.Corpus.Seed, r.Corpus.Hash)
	names := make([]string, 0, len(r.Corpus.Profiles))
	for name := range r.Corpus.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  profile %-12s %d utts\n", name, r.Corpus.Profiles[name])
	}
	fmt.Fprintf(w, "ladder (SLO p99 <= %.0fms, %d utts per rung, %d cores):\n",
		r.SLOMS, r.PerRate, r.GOMAXPROCS)
	for _, st := range r.Ladder {
		fmt.Fprintf(w, "  rate %6.1f/s: %s\n", st.RateSessionsPerSec, st.Line())
	}
	switch {
	case r.Saturation.Found:
		fmt.Fprintf(w, "saturation knee: %.1f sessions/s sustained — %.0f frames/s (%.0f per core); next rung broke on %s\n",
			r.Saturation.RateSessionsPerSec, r.Saturation.FramesPerSec,
			r.Saturation.FramesPerSecPerCore, r.Saturation.Limit)
	case r.SustainedFramesPerSec > 0:
		fmt.Fprintf(w, "saturation not reached: top rung %.1f sessions/s still sustained (%.0f frames/s) — raise the ladder\n",
			r.Saturation.RateSessionsPerSec, r.Saturation.FramesPerSec)
	default:
		fmt.Fprintf(w, "no rung sustained the SLO — lower the ladder or relax -slo\n")
	}
}
