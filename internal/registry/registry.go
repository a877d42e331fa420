// Package registry is the model registry of the serving stack: a set
// of named (model, backend) variants, each exposing an immutable
// compiled dnn.Plan that any number of sessions execute concurrently,
// with atomic plan-pointer hot-swap for zero-downtime weight reloads.
//
// The package closes the gap between "one process, one model,
// forever" and fleet-style deployment. Pruning changes the serving
// cost profile per variant (the paper's dark side), so real fleets
// run several (model, pruning-level, backend) combinations side by
// side — a dense baseline for accuracy-critical traffic, a 90%-pruned
// sparse variant for cheap bulk traffic — and roll new weights out
// gradually. A Registry gives every variant a stable name clients put
// in the wire handshake (docs/SERVING.md), and Swap/Reload replace a
// variant's plan atomically: sessions that already pinned the old
// plan finish on it bit-identically, new sessions compile-free pick
// up the new pointer. Nothing is ever mutated in place — a swap
// builds a fresh Plan from a fresh Network, so the old plan stays
// valid for as long as anyone holds it.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dnn"
)

// Variant is one named serving model: an immutable identity (name,
// backend, optional source path) plus an atomically swappable
// compiled plan.
type Variant struct {
	name    string
	backend dnn.Backend
	path    string // model file for Reload; "" when registered from memory

	mu   sync.RWMutex
	plan *dnn.Plan
}

// Name returns the variant's registered name.
func (v *Variant) Name() string { return v.name }

// Backend returns the kernel policy the variant's plans compile under.
func (v *Variant) Backend() dnn.Backend { return v.backend }

// Plan returns the variant's current compiled plan. The returned plan
// is shared read-only and stays valid after later swaps: a session
// that captures it ("pins" it) keeps decoding the exact weights it
// started with, bit for bit, no matter how many reloads happen
// meanwhile.
func (v *Variant) Plan() *dnn.Plan {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.plan
}

// Swap compiles net under the variant's backend and atomically
// replaces the current plan, returning the new one. The network is
// only read during compilation; the caller must not mutate it while
// Swap runs. Afterwards is fine: every kernel of the plan owns a copy
// of its layer's weights and bias (dnn.Compile's snapshot contract),
// so later writes to net never reach the plan, and the plan keeps
// none of net's weight storage alive.
func (v *Variant) Swap(net *dnn.Network) (*dnn.Plan, error) {
	if net == nil {
		return nil, fmt.Errorf("registry: Swap(%s) with nil network", v.name)
	}
	cur := v.Plan()
	if net.OutDim() != cur.OutDim() {
		return nil, fmt.Errorf("registry: Swap(%s): new model has %d outputs, variant serves %d",
			v.name, net.OutDim(), cur.OutDim())
	}
	plan := dnn.Compile(net, dnn.PlanConfig{Backend: v.backend})
	v.mu.Lock()
	v.plan = plan
	v.mu.Unlock()
	obsPlanSwaps.Inc()
	return plan, nil
}

// Reload re-reads the variant's model file and swaps the fresh
// weights in. It is the SIGHUP path of cmd/asrserve: on any error the
// current plan is left untouched and the service keeps running on the
// old weights.
func (v *Variant) Reload() error {
	if v.path == "" {
		return fmt.Errorf("registry: variant %q has no model path to reload from", v.name)
	}
	net, err := dnn.LoadFile(v.path)
	if err != nil {
		return fmt.Errorf("registry: reload %q: %w", v.name, err)
	}
	if _, err := v.Swap(net); err != nil {
		return err
	}
	return nil
}

// Registry maps variant names to Variants. Registration happens at
// startup (Register is not meant for the serving hot path); Resolve
// and the Variant methods are safe for arbitrary concurrency.
type Registry struct {
	mu       sync.RWMutex
	variants map[string]*Variant
	order    []string // registration order, for stable listings
	def      string   // default variant name ("" = none registered yet)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{variants: map[string]*Variant{}}
}

// Register compiles net under backend and adds it as a new variant.
// The first registered variant becomes the default (override with
// SetDefault). path is the model file Reload re-reads ("" disables
// Reload for this variant). Every variant must agree on OutDim — all
// sessions decode against one shared search graph, so the senone set
// is a property of the server, not the variant.
func (r *Registry) Register(name, path string, net *dnn.Network, backend dnn.Backend) (*Variant, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: variant name must be non-empty")
	}
	if net == nil {
		return nil, fmt.Errorf("registry: Register(%q) with nil network", name)
	}
	if backend == "" {
		backend = dnn.BackendAuto
	}
	plan := dnn.Compile(net, dnn.PlanConfig{Backend: backend})

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.variants[name]; dup {
		return nil, fmt.Errorf("registry: variant %q already registered", name)
	}
	for _, prev := range r.order {
		if got, want := plan.OutDim(), r.variants[prev].Plan().OutDim(); got != want {
			return nil, fmt.Errorf("registry: variant %q has %d outputs but %q serves %d — all variants must share the senone set",
				name, got, prev, want)
		}
	}
	v := &Variant{name: name, backend: backend, path: path, plan: plan}
	r.variants[name] = v
	r.order = append(r.order, name)
	if r.def == "" {
		r.def = name
	}
	obsActiveVariants.Set(float64(len(r.order)))
	return v, nil
}

// SetDefault names the variant sessions get when the handshake omits
// the model field.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.variants[name]; !ok {
		return fmt.Errorf("registry: default %q is not a registered variant", name)
	}
	r.def = name
	return nil
}

// Default returns the default variant's name ("" while empty).
func (r *Registry) Default() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Resolve returns the variant for name, with "" meaning the default.
// ok is false when the name is unknown (or the registry is empty).
func (r *Registry) Resolve(name string) (v *Variant, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.def
	}
	v, ok = r.variants[name]
	return v, ok
}

// Names returns the registered variant names in sorted order — the
// listing an unknown-model reject carries.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

// Len returns the number of registered variants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// OutDim returns the shared output dimensionality (senone count) of
// the registered variants, or 0 while empty.
func (r *Registry) OutDim() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.order) == 0 {
		return 0
	}
	return r.variants[r.order[0]].Plan().OutDim()
}

// ReloadAll re-reads every path-backed variant's model file and swaps
// the fresh plans in, one variant at a time. The first error stops
// the sweep and is returned; variants already swapped keep their new
// weights, the rest keep their old ones — there is no cross-variant
// transaction, matching fleet rollouts where variants update
// independently.
func (r *Registry) ReloadAll() error {
	r.mu.RLock()
	variants := make([]*Variant, 0, len(r.order))
	for _, name := range r.order {
		variants = append(variants, r.variants[name])
	}
	r.mu.RUnlock()
	for _, v := range variants {
		if v.path == "" {
			continue
		}
		if err := v.Reload(); err != nil {
			return err
		}
	}
	return nil
}
