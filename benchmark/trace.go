package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the public API. Parent is the index of the span that caused
// it (-1 for a root); spans of one session share Session.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session string `json:"session,omitempty"`
	Frames  int    `json:"frames,omitempty"` // on a root span: the frames the session carried
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: begin and end do nothing, so the end-to-end
// numbers are measured without a single clock read added.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end (and as a parent).
func (t *tracer) begin(name, session string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Session: session})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// frames records how many frames a root span's session carried.
func (t *tracer) frames(id, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Frames = n
	t.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the
// part its direct children cover. Children of one span never overlap
// each other here (each session is driven by one goroutine), so the
// children's durations simply subtract.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.EndNS - s.StartNS)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.EndNS - s.StartNS)
		}
	}
	return self
}

// sessionStages groups self time by session and stage: for every root
// span (one per session) the summed self time of its descendants, by
// span name. A parent is always begun before its children, so one
// forward pass resolves every span's root.
type sessionStages struct {
	id     string
	frames int
	self   map[string]time.Duration
}

func (t *tracer) sessions() []sessionStages {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	root := make([]int, len(t.spans))
	byRoot := map[int]*sessionStages{}
	var order []int
	for i, s := range t.spans {
		if s.Parent < 0 {
			root[i] = i
			if s.Frames > 0 {
				byRoot[i] = &sessionStages{id: s.Session, frames: s.Frames, self: map[string]time.Duration{}}
				order = append(order, i)
			}
			continue
		}
		root[i] = root[s.Parent]
		if ss := byRoot[root[i]]; ss != nil {
			ss.self[s.Name] += self[i]
		}
	}
	out := make([]sessionStages, len(order))
	for k, i := range order {
		out[k] = *byRoot[i]
	}
	return out
}

// stageUS lists, over the sessions whose id starts with prefix and that
// have the stage, the stage's self time in microseconds — per frame of
// the session when perFrame is set, whole otherwise.
func stageUS(sessions []sessionStages, prefix, stage string, perFrame bool) []float64 {
	var out []float64
	for _, s := range sessions {
		d, ok := s.self[stage]
		if !ok || !strings.HasPrefix(s.id, prefix) {
			continue
		}
		us := float64(d.Nanoseconds()) / 1e3
		if perFrame {
			us /= float64(s.frames)
		}
		out = append(out, us)
	}
	return out
}

// durationsUS lists the durations, in microseconds, of every span with
// the given name.
func (t *tracer) durationsUS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
