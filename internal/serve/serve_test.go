package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/registry"
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

func newFixture(t testing.TB) *testFixture {
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
		Registry:    f.registry(t),
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
	return spliced, f.dec.Decode(denseScores(f.net, spliced), decoder.Config{Beam: 15, AcousticScale: 1})
}

// denseScores scores spliced frames on a dense plan of net: the
// reference every served plan must match bit for bit.
func denseScores(net *dnn.Network, spliced [][]float64) [][]float64 {
	ex := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
	scores := make([][]float64, len(spliced))
	for i, in := range spliced {
		scores[i] = make([]float64, net.OutDim())
		ex.LogPosteriors(scores[i], in)
	}
	return scores
}

// registry returns a fresh registry serving the fixture network as its
// sole variant, "default", on auto kernels.
func (f *testFixture) registry(t testing.TB) *registry.Registry {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register("default", "", f.net, dnn.BackendAuto); err != nil {
		t.Fatal(err)
	}
	return reg
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
// is cut off with a deadline error event, not held forever, and so is
// one whose frames keep arriving past the deadline — the server arms
// the deadline on every socket read, not only on an idle one.
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

	t.Run("frames_keep_arriving", func(t *testing.T) {
		conn, br := rawSession(t, addr, Request{Op: OpStart, ID: "busy", DeadlineMS: 100})
		defer conn.Close()
		replies := make(chan Reply, 1)
		go func() {
			var rep Reply
			line, err := br.ReadBytes('\n')
			if err == nil {
				err = json.Unmarshal(line, &rep)
			}
			if err != nil {
				rep = Reply{Reason: err.Error()}
			}
			replies <- rep
		}()
		start := time.Now()
		line := appendFrame(nil, floatBytes(frames[0]...))
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case rep := <-replies:
				if rep.Event != EventError || !strings.Contains(rep.Reason, "deadline exceeded") {
					t.Fatalf("session fed past its deadline answered %+v, want a deadline error", rep)
				}
				if took := time.Since(start); took < 100*time.Millisecond || took > 3*time.Second {
					t.Fatalf("session with a 100 ms deadline cut after %v", took)
				}
				return
			case <-tick.C:
				_, _ = conn.Write(line) // fails once the server hangs up
			}
		}
	})
}

// rawSession dials addr, sends start and reads the ready reply, and
// returns the connection and a reader of the replies after it.
func rawSession(t *testing.T, addr string, start Request) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(conn).Encode(start); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if ready, err := br.ReadString('\n'); err != nil || !strings.Contains(ready, `"event":"ready"`) {
		t.Fatalf("not admitted: %q, %v", ready, err)
	}
	return conn, br
}

// readReplies reads reply lines until the connection closes.
func readReplies(t *testing.T, br *bufio.Reader) []Reply {
	t.Helper()
	var reps []Reply
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return reps
		}
		var rep Reply
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("reply %q: %v", line, err)
		}
		reps = append(reps, rep)
	}
}

// TestIdleTimeout pins the idle cutoff independently of the session
// deadline: a client silent after its start, silent in the middle of a
// line, and silent after a burst of frames the server holds in its
// read buffer — each of which it serves first — is cut off with an
// idle-timeout error.
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

	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)
	idleCut := func(t *testing.T, reps []Reply) {
		t.Helper()
		if n := len(reps); n == 0 || reps[n-1].Event != EventError || !strings.Contains(reps[n-1].Reason, "idle timeout") {
			t.Fatalf("silent client answered %+v, want an idle-timeout error last", reps)
		}
	}
	t.Run("mid_line", func(t *testing.T) {
		conn, br := rawSession(t, addr, Request{Op: OpStart, ID: "mid"})
		defer conn.Close()
		line := appendFrame(nil, floatBytes(frames[0]...))
		if _, err := conn.Write(line[:len(line)/2]); err != nil {
			t.Fatal(err)
		}
		idleCut(t, readReplies(t, br))
	})
	t.Run("after_burst", func(t *testing.T) {
		conn, br := rawSession(t, addr, Request{Op: OpStart, ID: "burst", PartialEvery: len(frames)})
		defer conn.Close()
		var burst []byte
		for _, fr := range frames {
			burst = appendFrame(burst, floatBytes(fr...))
		}
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		reps := readReplies(t, br)
		idleCut(t, reps)
		if len(reps) != 2 || reps[0].Event != EventPartial || reps[0].Frames != len(frames) {
			t.Fatalf("burst of %d frames then silence answered %+v, want a partial after all of them, then the error", len(frames), reps)
		}
	})
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
