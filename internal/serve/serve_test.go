package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/speech"
	"repro/internal/wfst"
)

// testFixture is the shared tiny world/graph/network the serve tests
// run against (untrained network — decoding is still deterministic,
// which is all equivalence needs).
type testFixture struct {
	world *speech.World
	dec   *decoder.Decoder
	topo  dnn.Topology
	net   *dnn.Network
	utts  []*speech.Utterance
}

func newFixture(t *testing.T) *testFixture {
	t.Helper()
	cfg := speech.DefaultConfig()
	cfg.NumPhones = 5
	cfg.Vocab = 6
	cfg.FeatDim = 4
	world, err := speech.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := dnn.Topology{
		FeatDim: cfg.FeatDim, Context: 1, Hidden: 16, PoolGroup: 4,
		HiddenBlocks: 1, Senones: world.NumSenones(),
	}
	return &testFixture{
		world: world,
		dec:   decoder.New(wfst.Compile(world)),
		topo:  topo,
		net:   topo.Build(mat.NewRNG(7)),
		utts:  world.SynthesizeSetNoisy(48, 3, 2002, 1.1),
	}
}

// start launches a server for the fixture on a free port and returns
// its address plus a shutdown func asserting a clean drain.
func (f *testFixture) start(t *testing.T, mutate func(*Config)) (*Server, string, func()) {
	t.Helper()
	cfg := Config{
		Net:         f.net.Clone(),
		Decoder:     f.dec,
		Decode:      decoder.Config{Beam: 15, AcousticScale: 1},
		IdleTimeout: 5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	}
	return srv, addr.String(), stop
}

// decodeRemote runs one utterance through a client session.
func decodeRemote(addr string, frames [][]float64, opts SessionOptions) (Reply, []Reply, error) {
	cs, err := Dial(addr, opts)
	if err != nil {
		return Reply{}, nil, err
	}
	defer cs.Close()
	for _, fr := range frames {
		if err := cs.PushFrame(fr); err != nil {
			return Reply{}, nil, err
		}
	}
	return cs.Finish()
}

// reference decodes the utterance locally, serially — the ground
// truth the served result must match bit for bit.
func (f *testFixture) reference(u *speech.Utterance) ([][]float64, decoder.Result) {
	spliced := speech.SpliceAll(u.Frames, f.topo.Context)
	net := f.net.Clone()
	scores := make([][]float64, len(spliced))
	for i, in := range spliced {
		scores[i] = make([]float64, f.topo.Senones)
		net.LogPosteriors(scores[i], in)
	}
	return spliced, f.dec.Decode(scores, decoder.Config{Beam: 15, AcousticScale: 1})
}

// TestServedTranscriptsBitIdentical is the core serving contract:
// results streamed through the server are bit-identical (words and
// cost) to local serial decodes, for every session, under concurrent
// load and -race. Served() is read right after the last result arrives:
// a session counts as served before its result is written.
func TestServedTranscriptsBitIdentical(t *testing.T) {
	f := newFixture(t)
	srv, addr, stop := f.start(t, nil)
	defer stop()

	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := f.utts[i%len(f.utts)]
			frames, want := f.reference(u)
			rep, _, err := decodeRemote(addr, frames, SessionOptions{ID: fmt.Sprintf("s%d", i)})
			if err != nil {
				errs <- fmt.Errorf("session %d: %v", i, err)
				return
			}
			if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
				errs <- fmt.Errorf("session %d: served (%v, %v) != local (%v, %v)",
					i, rep.OK, rep.Cost, want.OK, want.Cost)
				return
			}
			if fmt.Sprint(rep.Words) != fmt.Sprint(want.Words) {
				errs <- fmt.Errorf("session %d: served words %v != local %v", i, rep.Words, want.Words)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Served(); got != sessions {
		t.Errorf("Served() = %d, want %d", got, sessions)
	}
}

// TestAdmissionControlRejects saturates the session cap and asserts
// the backpressure contract: overload is answered with an explicit
// reject carrying a retry-after hint, not queue growth.
func TestAdmissionControlRejects(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, func(c *Config) {
		c.MaxSessions = 2
	})
	defer stop()

	// Occupy both slots with idle admitted sessions.
	var held []*ClientSession
	for i := 0; i < 2; i++ {
		cs, err := Dial(addr, SessionOptions{ID: fmt.Sprintf("hold%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, cs)
	}

	_, err := Dial(addr, SessionOptions{ID: "overflow"})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("third session: got %v, want RejectedError", err)
	}
	if rej.RetryAfter <= 0 {
		t.Errorf("reject carries no retry-after hint: %+v", rej)
	}
	if !strings.Contains(rej.Reason, "capacity") {
		t.Errorf("reject reason %q, want capacity", rej.Reason)
	}

	// Releasing a slot readmits: bounded, not broken.
	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)
	for _, fr := range frames {
		if err := held[0].PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := held[0].Finish(); err != nil {
		t.Fatal(err)
	}
	held[0].Close()
	cs, err := Dial(addr, SessionOptions{ID: "after-release"})
	if err != nil {
		t.Fatalf("session after release: %v", err)
	}
	cs.Close()
	held[1].Close()
}

// TestGracefulDrain checks shutdown semantics: in-flight sessions
// complete with a full result, a start racing the drain is refused,
// and Serve/Shutdown both return cleanly.
func TestGracefulDrain(t *testing.T) {
	f := newFixture(t)
	srv, addr, _ := f.start(t, nil)

	u := f.utts[0]
	frames, want := f.reference(u)

	// Admit a session and push half the frames before draining.
	cs, err := Dial(addr, SessionOptions{ID: "inflight"})
	if err != nil {
		t.Fatal(err)
	}
	half := len(frames) / 2
	for _, fr := range frames[:half] {
		if err := cs.PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// New sessions must be refused while draining (listener closed →
	// dial error, or a raced accept → explicit draining reject).
	time.Sleep(20 * time.Millisecond)
	if _, err := Dial(addr, SessionOptions{ID: "late"}); err == nil {
		t.Error("session admitted during drain")
	}

	// The in-flight session finishes normally and matches the local
	// reference decode.
	for _, fr := range frames[half:] {
		if err := cs.PushFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	rep, _, err := cs.Finish()
	if err != nil {
		t.Fatalf("in-flight session failed during drain: %v", err)
	}
	if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("drained session result (%v, %v) != local (%v, %v)", rep.OK, rep.Cost, want.OK, want.Cost)
	}
	cs.Close()

	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestSessionDeadline pins the per-request deadline: a stalled client
// is cut off with a deadline error event, not held forever.
func TestSessionDeadline(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()

	cs, err := Dial(addr, SessionOptions{ID: "slow", Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	time.Sleep(150 * time.Millisecond)
	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)
	for _, fr := range frames {
		if err := cs.PushFrame(fr); err != nil {
			break // server may already have hung up
		}
	}
	if _, _, err := cs.Finish(); err == nil {
		t.Fatal("session past its deadline finished successfully")
	}
}

// TestIdleTimeout pins the idle cutoff independently of the session
// deadline.
func TestIdleTimeout(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, func(c *Config) {
		c.IdleTimeout = 50 * time.Millisecond
	})
	defer stop()

	cs, err := Dial(addr, SessionOptions{ID: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	time.Sleep(200 * time.Millisecond)
	if _, _, err := cs.Finish(); err == nil {
		t.Fatal("idle session finished successfully, want idle-timeout error")
	}
}

// TestPartials checks the streaming readout: with partial_every set,
// partial hypotheses arrive and the final result is unaffected
// (bit-identical to a session without partials).
func TestPartials(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()

	u := f.utts[1]
	frames, want := f.reference(u)
	rep, partials, err := decodeRemote(addr, frames, SessionOptions{ID: "p", PartialEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) == 0 {
		t.Error("no partial hypotheses received")
	}
	if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("result with partials (%v, %v) != local (%v, %v)", rep.OK, rep.Cost, want.OK, want.Cost)
	}
}

// TestBadFirstMessage pins the protocol error path.
func TestBadFirstMessage(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()

	cs := &ClientSession{}
	_ = cs // silence linters about unused patterns; we drive raw Dial here
	s, err := Dial(addr, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A second start on an admitted session is an unknown op.
	if err := s.send(Request{Op: OpStart}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Finish(); err == nil {
		t.Fatal("restart mid-session succeeded, want protocol error")
	}
}
