package serve

import (
	"fmt"
	"math"
	"testing"
)

// TestSessionPoolReusedAcrossConnections pins the serving layer's
// recycling: sequential connections decode through the same pooled
// decoder.Session and score on the same pooled Exec (restarted in
// place, not re-allocated), recycled state produces results
// bit-identical to local serial decodes, and after a hot-swap the next
// session scores on a fresh Exec of the new plan. The state is back in
// the pool before the result is written, so no polling is needed.
func TestSessionPoolReusedAcrossConnections(t *testing.T) {
	f := newFixture(t)
	srv, addr, stop := f.start(t, nil)
	defer stop()

	pooledState := func() *pooled {
		srv.poolMu.Lock()
		defer srv.poolMu.Unlock()
		if len(srv.pool) != 1 {
			t.Fatalf("pool holds %d entries, want 1", len(srv.pool))
		}
		return srv.pool[0]
	}
	if n := len(srv.pool); n != 0 {
		t.Fatalf("pool starts with %d entries, want 0", n)
	}
	decodeAndCheck := func(round int) {
		t.Helper()
		u := f.utts[round%len(f.utts)]
		frames, want := f.reference(u)
		rep, _, err := decodeRemote(addr, frames, SessionOptions{ID: fmt.Sprintf("pool%d", round)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("round %d: served (%v, %v) != local (%v, %v)",
				round, rep.OK, rep.Cost, want.OK, want.Cost)
		}
		if fmt.Sprint(rep.Words) != fmt.Sprint(want.Words) {
			t.Fatalf("round %d: served words %v != local %v", round, rep.Words, want.Words)
		}
	}

	const rounds = 6
	decodeAndCheck(0)
	first := pooledState()
	dec, exec := first.dec, first.exec
	for i := 1; i < rounds; i++ {
		decodeAndCheck(i)
		p := pooledState()
		if p != first || p.dec != dec || p.exec != exec {
			t.Fatalf("round %d: pooled state not recycled", i)
		}
	}
	if got := srv.Served(); got != rounds {
		t.Errorf("Served() = %d, want %d", got, rounds)
	}

	// Hot-swap the variant to a clone of the same weights: a new plan,
	// the same transcripts.
	v, _ := srv.Registry().Resolve("")
	if _, err := v.Swap(f.net.Clone()); err != nil {
		t.Fatal(err)
	}
	decodeAndCheck(rounds)
	p := pooledState()
	if p.dec != dec {
		t.Error("decode session not recycled across the swap")
	}
	if p.exec == exec || p.exec.Plan() != v.Plan() {
		t.Errorf("Exec after swap: same %v, on current plan %v; want a fresh Exec of the new plan",
			p.exec == exec, p.exec.Plan() == v.Plan())
	}
}
