package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/speech"
)

// multiFixture extends the serve fixture with a two-variant registry:
// the variants carry genuinely different weights (different seeds), so
// a frame scored on the wrong variant's plan — or a session resolved
// to the wrong plan — shows up as a different transcript.
type multiFixture struct {
	*testFixture
	reg  *registry.Registry
	nets map[string]*dnn.Network // variant name → source network
}

func newMultiFixture(t *testing.T) *multiFixture {
	t.Helper()
	f := newFixture(t)
	nets := map[string]*dnn.Network{
		"alpha-dense":  f.topo.Build(mat.NewRNG(7)), // same seed as the fixture default
		"bravo-sparse": f.topo.Build(mat.NewRNG(31)),
	}
	reg := registry.New()
	if _, err := reg.Register("alpha-dense", "", nets["alpha-dense"].Clone(), dnn.BackendDense); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("bravo-sparse", "", nets["bravo-sparse"].Clone(), dnn.BackendSparse); err != nil {
		t.Fatal(err)
	}
	return &multiFixture{testFixture: f, reg: reg, nets: nets}
}

// startMulti launches a server backed by the fixture's registry.
func (f *multiFixture) startMulti(t *testing.T, mutate func(*Config)) (*Server, string, func()) {
	t.Helper()
	return f.start(t, func(c *Config) {
		c.Net = nil
		c.Registry = f.reg
		if mutate != nil {
			mutate(c)
		}
	})
}

// referenceFor decodes an utterance locally and serially with the
// named variant's weights — the bit-exact target for a served session
// pinned to that variant.
func (f *multiFixture) referenceFor(model string, u *speech.Utterance) ([][]float64, decoder.Result) {
	spliced := speech.SpliceAll(u.Frames, f.topo.Context)
	net := f.nets[model].Clone()
	scores := make([][]float64, len(spliced))
	for i, in := range spliced {
		scores[i] = make([]float64, f.topo.Senones)
		net.LogPosteriors(scores[i], in)
	}
	return spliced, f.dec.Decode(scores, decoder.Config{Beam: 15, AcousticScale: 1})
}

// TestMultiModelBitIdentical is the per-plan scoring property test:
// concurrent sessions pinned to different variants — recycling each
// other's pooled state, so an Exec of one variant's plan is offered to
// sessions of the other — each produce transcripts bit-identical to
// their own variant's serial reference. A frame scored on the wrong
// plan would mix weights and break this immediately.
func TestMultiModelBitIdentical(t *testing.T) {
	f := newMultiFixture(t)
	_, addr, stop := f.startMulti(t, func(c *Config) {
		c.MaxSessions = 64
	})
	defer stop()

	obs.Enable()
	defer obs.Disable()
	before := obsModelSessions.Values()

	models := []string{"alpha-dense", "bravo-sparse", ""} // "" = default (alpha-dense)
	const sessions = 24
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := models[i%len(models)]
			resolved := model
			if resolved == "" {
				resolved = "alpha-dense"
			}
			u := f.utts[i%len(f.utts)]
			frames, want := f.referenceFor(resolved, u)
			// Shuffle nothing about the frames themselves (order is the
			// protocol's), but jitter session starts so both variants'
			// sessions interleave through the pool.
			time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
			cs, err := Dial(addr, SessionOptions{ID: fmt.Sprintf("mm%d", i), Model: model})
			if err != nil {
				errs <- fmt.Errorf("session %d (%q): %v", i, model, err)
				return
			}
			defer cs.Close()
			if got := cs.Model(); got != resolved {
				errs <- fmt.Errorf("session %d: ready reported model %q, want %q", i, got, resolved)
				return
			}
			for _, fr := range frames {
				if err := cs.PushFrame(fr); err != nil {
					errs <- fmt.Errorf("session %d: %v", i, err)
					return
				}
			}
			rep, _, err := cs.Finish()
			if err != nil {
				errs <- fmt.Errorf("session %d: %v", i, err)
				return
			}
			if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) ||
				fmt.Sprint(rep.Words) != fmt.Sprint(want.Words) {
				errs <- fmt.Errorf("session %d (%q): served (%v, %v, %v) != variant-serial (%v, %v, %v)",
					i, resolved, rep.OK, rep.Cost, rep.Words, want.OK, want.Cost, want.Words)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Both variants really served traffic.
	vals := obsModelSessions.Values()
	if vals["alpha-dense"] <= before["alpha-dense"] || vals["bravo-sparse"] <= before["bravo-sparse"] {
		t.Errorf("per-model session counters %v (before %v), want both variants to move", vals, before)
	}
}

// TestHotSwapDrains pins the hot-swap contract under live traffic: a
// session in flight across the swap finishes bit-identical to the OLD
// weights' serial reference, a session started after the swap decodes
// with the NEW weights, and the swap counter moves.
func TestHotSwapDrains(t *testing.T) {
	f := newMultiFixture(t)
	_, addr, stop := f.startMulti(t, nil)
	defer stop()

	obs.Enable()
	defer obs.Disable()
	swaps := obs.Default.Get("registry.plan_swaps").(*obs.Counter)
	swaps0 := swaps.Value()

	u := f.utts[2]
	frames, wantOld := f.referenceFor("alpha-dense", u)

	// Admit a session and push half its frames on the old plan.
	cs, err := Dial(addr, SessionOptions{ID: "inflight", Model: "alpha-dense"})
	if err != nil {
		t.Fatal(err)
	}
	half := len(frames) / 2
	for _, fr := range frames[:half] {
		if err := cs.PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}

	// Hot-swap alpha-dense to the bravo weights mid-session.
	v, ok := f.reg.Resolve("alpha-dense")
	if !ok {
		t.Fatal("alpha-dense not registered")
	}
	newNet := f.nets["bravo-sparse"].Clone()
	if _, err := v.Swap(newNet); err != nil {
		t.Fatal(err)
	}
	if got := swaps.Value() - swaps0; got != 1 {
		t.Errorf("registry.plan_swaps moved by %d, want 1", got)
	}

	// The pinned session finishes on the OLD weights, bit for bit.
	for _, fr := range frames[half:] {
		if err := cs.PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	rep, _, err := cs.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cs.Close()
	if rep.OK != wantOld.OK || math.Float64bits(rep.Cost) != math.Float64bits(wantOld.Cost) ||
		fmt.Sprint(rep.Words) != fmt.Sprint(wantOld.Words) {
		t.Errorf("in-flight session across swap: (%v, %v, %v) != old-weights serial (%v, %v, %v)",
			rep.OK, rep.Cost, rep.Words, wantOld.OK, wantOld.Cost, wantOld.Words)
	}

	// A session admitted after the swap decodes with the NEW weights
	// (== the bravo reference, since we swapped those weights in).
	_, wantNew := f.referenceFor("bravo-sparse", u)
	cs2, err := Dial(addr, SessionOptions{ID: "post-swap", Model: "alpha-dense"})
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	for _, fr := range frames {
		if err := cs2.PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	rep2, _, err := cs2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK != wantNew.OK || math.Float64bits(rep2.Cost) != math.Float64bits(wantNew.Cost) {
		t.Errorf("post-swap session: (%v, %v) != new-weights serial (%v, %v)",
			rep2.OK, rep2.Cost, wantNew.OK, wantNew.Cost)
	}
}

// TestHotSwapUnderConcurrentLoad swaps repeatedly while sessions
// stream, under -race: every session must match either the weights it
// started under — sessions pin their plan at admission, so the answer
// is deterministic per session even though swaps land mid-stream.
func TestHotSwapUnderConcurrentLoad(t *testing.T) {
	f := newMultiFixture(t)
	_, addr, stop := f.startMulti(t, func(c *Config) {
		c.MaxSessions = 64
	})
	defer stop()

	v, ok := f.reg.Resolve("alpha-dense")
	if !ok {
		t.Fatal("alpha-dense not registered")
	}
	netA := f.nets["alpha-dense"]
	netB := f.nets["bravo-sparse"]
	_, wantA := f.referenceFor("alpha-dense", f.utts[0])
	_, wantB := f.referenceFor("bravo-sparse", f.utts[0])
	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)

	done := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		flip := false
		for {
			select {
			case <-done:
				return
			case <-time.After(3 * time.Millisecond):
				src := netA
				if flip {
					src = netB
				}
				flip = !flip
				if _, err := v.Swap(src.Clone()); err != nil {
					t.Errorf("swap: %v", err)
					return
				}
			}
		}
	}()

	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, _, err := decodeRemote(addr, frames, SessionOptions{ID: fmt.Sprintf("swap%d", i), Model: "alpha-dense"})
			if err != nil {
				errs <- fmt.Errorf("session %d: %v", i, err)
				return
			}
			matches := func(w decoder.Result) bool {
				return rep.OK == w.OK && math.Float64bits(rep.Cost) == math.Float64bits(w.Cost) &&
					fmt.Sprint(rep.Words) == fmt.Sprint(w.Words)
			}
			if !matches(wantA) && !matches(wantB) {
				errs <- fmt.Errorf("session %d: result (%v, %v, %v) matches neither weight set — frames crossed a swap boundary",
					i, rep.OK, rep.Cost, rep.Words)
			}
		}(i)
	}
	wg.Wait()
	close(done)
	swapWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUnknownModelReject pins the handshake-hardening contract: an
// unknown model is refused with a structured reject that names the
// model, lists the available variants (sorted), carries no retry-after
// hint, and reads as permanent client-side.
func TestUnknownModelReject(t *testing.T) {
	f := newMultiFixture(t)
	_, addr, stop := f.startMulti(t, nil)
	defer stop()

	_, err := Dial(addr, SessionOptions{ID: "x", Model: "no-such-model"})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want RejectedError", err)
	}
	if !strings.Contains(rej.Reason, `unknown model "no-such-model"`) {
		t.Errorf("reason %q does not name the unknown model", rej.Reason)
	}
	if want := []string{"alpha-dense", "bravo-sparse"}; fmt.Sprint(rej.Available) != fmt.Sprint(want) {
		t.Errorf("Available = %v, want %v", rej.Available, want)
	}
	if rej.RetryAfter != 0 {
		t.Errorf("unknown-model reject carries retry-after %v — clients would retry forever", rej.RetryAfter)
	}
	if !rej.Permanent() {
		t.Error("unknown-model reject not marked permanent")
	}

	// The connection stays usable for nothing — but a fresh session
	// with a valid model is admitted, so the reject was per-session.
	cs, err := Dial(addr, SessionOptions{ID: "y", Model: "bravo-sparse"})
	if err != nil {
		t.Fatalf("valid model after reject: %v", err)
	}
	cs.Close()
}

// TestUnknownOpError pins the other handshake-hardening path: a bogus
// op on an admitted session is answered with an error event naming the
// op verbatim.
func TestUnknownOpError(t *testing.T) {
	f := newMultiFixture(t)
	_, addr, stop := f.startMulti(t, nil)
	defer stop()

	cs, err := Dial(addr, SessionOptions{ID: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if err := cs.send(Request{Op: "transmogrify"}); err != nil {
		t.Fatal(err)
	}
	_, _, err = cs.Finish()
	if err == nil {
		t.Fatal("unknown op succeeded")
	}
	if !strings.Contains(err.Error(), `unknown op "transmogrify"`) {
		t.Errorf("error %q does not name the op", err)
	}
}

// TestFirstMessageMustBeStart pins the pre-admission error: any first
// op other than start is refused by name.
func TestFirstMessageMustBeStart(t *testing.T) {
	f := newMultiFixture(t)
	_, addr, stop := f.startMulti(t, nil)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(Request{Op: OpFrame}); err != nil {
		t.Fatal(err)
	}
	var rep Reply
	if err := json.NewDecoder(conn).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Event != EventError || !strings.Contains(rep.Reason, "start") {
		t.Errorf("first-op-frame answered with %+v, want error mentioning start", rep)
	}
}
