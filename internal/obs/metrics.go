package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// meta is the name/unit/help triple shared by all metric kinds; the
// on flag aliases the owning registry's enabled flag so every update
// is a single atomic load away from becoming a no-op.
type meta struct {
	name, unit, help string
	on               *atomic.Bool
}

func (m *meta) Name() string { return m.name }
func (m *meta) Unit() string { return m.unit }
func (m *meta) Help() string { return m.help }

// Counter is a monotonically increasing atomic count.
type Counter struct {
	meta
	v atomic.Int64
}

// NewCounterIn registers (or returns the existing) counter in r.
func NewCounterIn(r *Registry, name, unit, help string) *Counter {
	c := &Counter{meta: meta{name: name, unit: unit, help: help, on: &r.enabled}}
	return register(r, c)
}

// NewCounter registers the counter in the Default registry.
func NewCounter(name, unit, help string) *Counter { return NewCounterIn(Default, name, unit, help) }

// Add increments the counter by n (dropped while disabled).
func (c *Counter) Add(n int64) {
	if !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) snapshot() map[string]any {
	return map[string]any{"type": "counter", "unit": c.unit, "help": c.help, "value": c.Value()}
}

// Gauge is an instantaneous float64 value (set or adjusted).
type Gauge struct {
	meta
	bits atomic.Uint64
}

// NewGaugeIn registers (or returns the existing) gauge in r.
func NewGaugeIn(r *Registry, name, unit, help string) *Gauge {
	g := &Gauge{meta: meta{name: name, unit: unit, help: help, on: &r.enabled}}
	return register(r, g)
}

// NewGauge registers the gauge in the Default registry.
func NewGauge(name, unit, help string) *Gauge { return NewGaugeIn(Default, name, unit, help) }

// Set stores v (dropped while disabled).
func (g *Gauge) Set(v float64) {
	if !g.on.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge (dropped while disabled).
func (g *Gauge) Add(d float64) {
	if !g.on.Load() {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) snapshot() map[string]any {
	return map[string]any{"type": "gauge", "unit": g.unit, "help": g.help, "value": g.Value()}
}

// Histogram counts observations into fixed buckets (upper bounds in
// ascending order, with an implicit +Inf overflow bucket) and tracks
// the running count and sum. Bucket bounds are fixed at construction
// — the hardware-counter model, not a quantile sketch.
type Histogram struct {
	meta
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogramIn registers (or returns the existing) histogram in r.
// bounds must be ascending; they are copied.
func NewHistogramIn(r *Registry, name, unit, help string, bounds []float64) *Histogram {
	h := newHistogram(meta{name: name, unit: unit, help: help, on: &r.enabled}, append([]float64(nil), bounds...))
	return register(r, h)
}

// newHistogram is an unregistered histogram over bounds, which it keeps.
func newHistogram(m meta, bounds []float64) *Histogram {
	return &Histogram{meta: m, bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// NewHistogram registers the histogram in the Default registry.
func NewHistogram(name, unit, help string, bounds []float64) *Histogram {
	return NewHistogramIn(Default, name, unit, help, bounds)
}

// Observe records one value (dropped while disabled).
func (h *Histogram) Observe(v float64) {
	if !h.on.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bucket returns the i-th bucket count; index len(bounds) is the
// overflow (+Inf) bucket.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Quantile returns an upper bound for the p-quantile (0..1) of the
// observed distribution: the smallest bucket bound whose cumulative
// count reaches p, or +Inf if it falls in the overflow bucket.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

func (h *Histogram) snapshot() map[string]any {
	buckets := make(map[string]int64, len(h.buckets))
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		buckets[formatBound(b)] = cum
	}
	cum += h.buckets[len(h.bounds)].Load()
	buckets["+Inf"] = cum
	return map[string]any{
		"type": "histogram", "unit": h.unit, "help": h.help,
		"count": h.Count(), "sum": h.Sum(), "mean": h.Mean(),
		"buckets": buckets,
	}
}

// Timer is a histogram of elapsed wall-clock seconds with a
// span-based recording API.
type Timer struct {
	h *Histogram
}

// LatencyBuckets are the default timer bounds: exponential from 1 µs
// to ~8.4 s (doubling), a range that covers a per-frame decode step at
// tiny scale up to a whole paper-scale experiment table.
func LatencyBuckets() []float64 {
	bounds := make([]float64, 24)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// NewTimerIn registers (or returns the existing) timer in r, backed by
// a histogram of seconds with LatencyBuckets bounds.
func NewTimerIn(r *Registry, name, help string) *Timer {
	return &Timer{h: NewHistogramIn(r, name, "seconds", help, LatencyBuckets())}
}

// NewTimer registers the timer in the Default registry.
func NewTimer(name, help string) *Timer { return NewTimerIn(Default, name, help) }

// Start opens a span; call Stop on it exactly once. While observation
// is disabled Start returns the zero Span without reading the clock,
// so a disabled timer costs one atomic load and a branch.
func (t *Timer) Start() Span {
	if !t.h.on.Load() {
		return Span{}
	}
	return Span{h: t.h, t0: time.Now()}
}

// Histogram exposes the backing histogram (for tests and readouts).
func (t *Timer) Histogram() *Histogram { return t.h }

// CountBuckets returns power-of-two bounds 1, 2, 4, ... up to at
// least max — the occupancy-style histogram used for per-frame beam
// population.
func CountBuckets(max float64) []float64 {
	var bounds []float64
	for b := 1.0; b <= max; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}
