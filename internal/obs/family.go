package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Family is a set of per-label metrics of one kind — counters or
// timers — registered in the catalogue under one name. It exists for
// dimensions whose values are only known at runtime: model variant
// names, the compiled-plan kernel names. Registering one metric per
// value would defeat the docs/OBSERVABILITY.md catalogue's
// bidirectional conformance test, and a new variant or kernel gets
// its series by existing. Children are created on first With(value),
// are not separately registered, and share the registry's enabled
// flag, so a disabled family costs the same one atomic load per update
// as every other metric.
type Family[M member] struct {
	meta
	label string
	kind  *familyKind
	child func(meta) M

	mu       sync.RWMutex
	children map[string]M
}

// member is what a family child, a *Counter or a *Timer, contributes
// to the family's readouts.
type member interface {
	// count is the child's share of the family's total: a counter's
	// value, a timer's observation count.
	count() int64
	// state is the child's entry in the JSON snapshot's values.
	state() any
	// detail is the child's text readout after its label value.
	detail() string
}

// familyKind is the readout shape of one kind of family.
type familyKind struct {
	typ      string // JSON "type"
	totalKey string // JSON key of the summed child counts
	textType string // text readout's type column
	textN    string // prefix of the text readout's value column
}

var (
	counterFamily = &familyKind{typ: "counter_family", totalKey: "total", textType: "family"}
	timerFamily   = &familyKind{typ: "timer_family", totalKey: "count", textType: "timer_family", textN: "n="}
)

// NewCounterFamilyIn registers (or returns the existing) counter
// family in r. label names the dimension the children are keyed by
// (e.g. "model").
func NewCounterFamilyIn(r *Registry, name, unit, label, help string) *Family[*Counter] {
	return newFamily(r, meta{name: name, unit: unit, help: help}, label, counterFamily,
		func(m meta) *Counter { return &Counter{meta: m} })
}

// NewCounterFamily registers the counter family in the Default registry.
func NewCounterFamily(name, unit, label, help string) *Family[*Counter] {
	return NewCounterFamilyIn(Default, name, unit, label, help)
}

// NewTimerFamilyIn registers (or returns the existing) timer family
// in r. label names the dimension the children are keyed by (e.g.
// "kernel"). Children are histograms of seconds with LatencyBuckets
// bounds, like every other Timer.
func NewTimerFamilyIn(r *Registry, name, label, help string) *Family[*Timer] {
	return newFamily(r, meta{name: name, unit: "seconds", help: help}, label, timerFamily,
		func(m meta) *Timer { return &Timer{h: newHistogram(m, LatencyBuckets())} })
}

// NewTimerFamily registers the timer family in the Default registry.
func NewTimerFamily(name, label, help string) *Family[*Timer] {
	return NewTimerFamilyIn(Default, name, label, help)
}

func newFamily[M member](r *Registry, m meta, label string, kind *familyKind, child func(meta) M) *Family[M] {
	m.on = &r.enabled
	return register(r, &Family[M]{meta: m, label: label, kind: kind, child: child, children: map[string]M{}})
}

// Label returns the name of the dimension children are keyed by.
func (f *Family[M]) Label() string { return f.label }

// With returns the child for the given label value, creating it on
// first use. Hot paths should resolve the child once (at plan compile
// time, at session admission) and hold it; the child's updates are
// lock-free and identical to a standalone metric's.
func (f *Family[M]) With(value string) M {
	f.mu.RLock()
	c, ok := f.children[value]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[value]; ok {
		return c
	}
	c = f.child(meta{name: f.name + "{" + f.label + "=" + value + "}", unit: f.unit, help: f.help, on: f.on})
	f.children[value] = c
	return c
}

// Values returns a point-in-time copy of every child's count — a
// counter's value, a timer's observation count — keyed by label value.
func (f *Family[M]) Values() map[string]int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]int64, len(f.children))
	for v, c := range f.children {
		out[v] = c.count()
	}
	return out
}

// Total returns the sum of the children's counts.
func (f *Family[M]) Total() int64 {
	var t int64
	for _, n := range f.Values() {
		t += n
	}
	return t
}

func (f *Family[M]) snapshot() map[string]any {
	f.mu.RLock()
	defer f.mu.RUnlock()
	values := map[string]any{}
	var total int64
	for v, c := range f.children {
		values[v] = c.state()
		total += c.count()
	}
	return map[string]any{
		"type": f.kind.typ, "unit": f.unit, "help": f.help,
		"label": f.label, f.kind.totalKey: total, "values": values,
	}
}

// textLine returns the text readout's type, value and detail columns:
// the children in label-value order.
func (f *Family[M]) textLine() (typ, value, detail string) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.children))
	var total int64
	for k, c := range f.children {
		keys = append(keys, k)
		total += c.count()
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			detail += " "
		}
		detail += k + f.children[k].detail()
	}
	return f.kind.textType, fmt.Sprintf("%s%d", f.kind.textN, total), detail
}

func (c *Counter) count() int64   { return c.Value() }
func (c *Counter) state() any     { return c.Value() }
func (c *Counter) detail() string { return fmt.Sprintf("=%d", c.Value()) }

func (t *Timer) count() int64 { return t.h.Count() }
func (t *Timer) state() any   { return t.h.snapshot() }
func (t *Timer) detail() string {
	return fmt.Sprintf("{n=%d p99<=%.4g}", t.h.Count(), t.h.Quantile(0.99))
}
