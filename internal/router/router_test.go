package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeBackend is a minimal protocol endpoint: it reads the start line
// and answers with the configured reply, then (when admitted) echoes a
// canned result on finish. Enough to test routing decisions and reply
// propagation without real decoding.
type fakeBackend struct {
	ln    net.Listener
	admit serve.Reply
}

func newFakeBackend(t *testing.T, admit serve.Reply) *fakeBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{ln: ln, admit: admit}
	go fb.loop()
	t.Cleanup(func() { ln.Close() })
	return fb
}

func (fb *fakeBackend) addr() string { return fb.ln.Addr().String() }

func (fb *fakeBackend) loop() {
	for {
		conn, err := fb.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			br := bufio.NewReader(conn)
			line, err := br.ReadBytes('\n')
			if err != nil {
				return // health probe: connect + hangup
			}
			var req serve.Request
			if json.Unmarshal(line, &req) != nil {
				return
			}
			admit := fb.admit
			if admit.Event == serve.EventReady {
				admit.Session = req.ID
				admit.Model = "fake"
			}
			out, _ := json.Marshal(admit)
			if _, err := conn.Write(append(out, '\n')); err != nil {
				return
			}
			if admit.Event != serve.EventReady {
				return
			}
			// Echo loop: consume ops until finish, then report a result
			// that names the backend so tests can tell who served it.
			for {
				line, err := br.ReadBytes('\n')
				if err != nil {
					return
				}
				if json.Unmarshal(line, &req) != nil {
					return
				}
				if req.Op == serve.OpFinish {
					res, _ := json.Marshal(serve.Reply{Event: serve.EventResult, Session: fb.addr(), OK: true})
					_, _ = conn.Write(append(res, '\n'))
					return
				}
			}
		}(conn)
	}
}

func startRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rt.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	})
	return rt, addr.String()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"a:1", "a:1"}}); err == nil {
		t.Error("duplicate backend accepted")
	}
	if _, err := New(Config{Backends: []string{"a:1", ""}}); err == nil {
		t.Error("empty backend address accepted")
	}
}

// TestRankDeterministic pins the rendezvous-hash contract: the order
// is a pure function of (backend set, session id) — stable across
// calls and across router instances — and different ids spread over
// different backends.
func TestRankDeterministic(t *testing.T) {
	addrs := []string{"h1:1", "h2:2", "h3:3"}
	r1, err := New(Config{Backends: addrs})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(Config{Backends: []string{"h3:3", "h1:1", "h2:2"}}) // same set, different order
	if err != nil {
		t.Fatal(err)
	}
	tops := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("session-%d", i)
		o1 := r1.rank(id)
		if fmt.Sprint(r1.rank(id)) != fmt.Sprint(o1) {
			t.Fatalf("rank(%q) unstable across calls", id)
		}
		o2 := r2.rank(id)
		for j := range o1 {
			if o1[j].addr != o2[j].addr {
				t.Fatalf("rank(%q) differs across instances: %v vs %v at %d", id, o1[j].addr, o2[j].addr, j)
			}
		}
		tops[o1[0].addr] = true
	}
	if len(tops) != len(addrs) {
		t.Errorf("64 ids landed on %d/%d backends — hash not spreading", len(tops), len(addrs))
	}
}

// TestRejectPropagation is the retry-after contract through the tier:
// a backend reject reaches the client with its retry_after_ms hint
// intact, not replaced by a router-originated reject.
func TestRejectPropagation(t *testing.T) {
	fb := newFakeBackend(t, serve.Reply{
		Event: serve.EventReject, Reason: "at capacity", RetryAfterMS: 123,
	})
	_, addr := startRouter(t, Config{Backends: []string{fb.addr()}})

	_, err := serve.Dial(addr, serve.SessionOptions{ID: "s1"})
	var rej *serve.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want RejectedError", err)
	}
	if rej.RetryAfter != 123*time.Millisecond {
		t.Errorf("RetryAfter = %v through the router, want 123ms (backend's hint)", rej.RetryAfter)
	}
	if rej.Reason != "at capacity" {
		t.Errorf("Reason = %q, want the backend's reason", rej.Reason)
	}
}

// TestUnknownModelRejectPropagation checks the permanent-reject shape
// survives too: the available-variants listing arrives verbatim.
func TestUnknownModelRejectPropagation(t *testing.T) {
	fb := newFakeBackend(t, serve.Reply{
		Event: serve.EventReject, Reason: `unknown model "x"`,
		Available: []string{"a", "b"},
	})
	_, addr := startRouter(t, Config{Backends: []string{fb.addr()}})

	_, err := serve.Dial(addr, serve.SessionOptions{ID: "s1", Model: "x"})
	var rej *serve.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want RejectedError", err)
	}
	if !rej.Permanent() || fmt.Sprint(rej.Available) != fmt.Sprint([]string{"a", "b"}) {
		t.Errorf("reject through router: Permanent=%v Available=%v, want permanent with [a b]", rej.Permanent(), rej.Available)
	}
}

// TestFailover kills the hash-preferred backend and checks the session
// lands on the survivor: dial failure marks the backend down and falls
// through in rank order.
func TestFailover(t *testing.T) {
	live := newFakeBackend(t, serve.Reply{Event: serve.EventReady})
	deadAddr := refusingAddr(t)
	rt, addr := startRouter(t, Config{Backends: []string{live.addr(), deadAddr}})

	// Only sessions whose rendezvous order puts the dead backend first
	// make the router dial it and fail over; take eight of them.
	var ids []string
	for i := 0; len(ids) < 8; i++ {
		id := fmt.Sprintf("f%d", i)
		if rt.rank(id)[0].addr == deadAddr {
			ids = append(ids, id)
		}
	}
	for i, id := range ids {
		cs, err := serve.Dial(addr, serve.SessionOptions{ID: id})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		rep, _, err := cs.Finish()
		cs.Close()
		if err != nil {
			t.Fatalf("session %d finish: %v", i, err)
		}
		if rep.Session != live.addr() {
			t.Errorf("session %d served by %q, want the live backend %q", i, rep.Session, live.addr())
		}
	}
	if rt.Routed() != 8 {
		t.Errorf("Routed() = %d, want 8", rt.Routed())
	}
	if rt.Healthy() != 1 {
		t.Errorf("Healthy() = %d after failover, want 1", rt.Healthy())
	}
}

// refusingAddr returns a loopback address that refuses connections
// until the test ends. Its port is the local end of a connected
// client socket: nothing listens on it, and the socket holds the port
// so no listener opened later can take it.
func refusingAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		client.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client.LocalAddr().String()
}

// TestNoReachableBackend pins the router-originated reject: when every
// backend is down the client gets an explicit reject with the router's
// own retry-after hint, not a hang or connection reset.
func TestNoReachableBackend(t *testing.T) {
	_, addr := startRouter(t, Config{Backends: []string{refusingAddr(t)}, RetryAfter: 250 * time.Millisecond})

	_, err := serve.Dial(addr, serve.SessionOptions{ID: "s"})
	var rej *serve.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want RejectedError", err)
	}
	if rej.Reason != "no reachable backend" {
		t.Errorf("Reason = %q", rej.Reason)
	}
	if rej.RetryAfter != 250*time.Millisecond {
		t.Errorf("RetryAfter = %v, want the router's 250ms", rej.RetryAfter)
	}
	if rej.Permanent() {
		t.Error("no-backend reject marked permanent — clients should retry")
	}
}

// TestBadHandshake pins the router's own protocol errors: junk and
// wrong first ops are answered explicitly, naming the problem.
func TestBadHandshake(t *testing.T) {
	fb := newFakeBackend(t, serve.Reply{Event: serve.EventReady})
	_, addr := startRouter(t, Config{Backends: []string{fb.addr()}})

	check := func(payload, want string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprintf(conn, "%s\n", payload); err != nil {
			t.Fatal(err)
		}
		var rep serve.Reply
		if err := json.NewDecoder(conn).Decode(&rep); err != nil {
			t.Fatalf("no reply to %q: %v", payload, err)
		}
		if rep.Event != serve.EventError {
			t.Errorf("payload %q answered with %q, want error", payload, rep.Event)
		}
		if want != "" && !strings.Contains(rep.Reason, want) {
			t.Errorf("payload %q: reason %q, want containing %q", payload, rep.Reason, want)
		}
	}
	check("{not json", "bad request")
	check(`{"op": "frame"}`, `"frame"`)
}

// TestDrainRejectsNewSessions: after Shutdown begins, a racing client
// is turned away; the drain completes without waiting on it.
func TestDrainRejectsNewSessions(t *testing.T) {
	fb := newFakeBackend(t, serve.Reply{Event: serve.EventReady})
	rt, err := New(Config{Backends: []string{fb.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rt.Serve() }()

	// One session through, then drain.
	cs, err := serve.Dial(addr.String(), serve.SessionOptions{ID: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Finish(); err != nil {
		t.Fatal(err)
	}
	cs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve returned %v after drain, want nil", err)
	}
	if _, err := serve.Dial(addr.String(), serve.SessionOptions{ID: "late"}); err == nil {
		t.Error("session admitted after drain")
	}
}

// TestOversizeHandshakeRefused pins the router's bounded handshake
// reads: a start line with no newline in sight is answered with one
// error reply once serve.MaxStartLine is crossed, a backend whose first
// reply never ends gets the client an error once serve.MaxReplyLine is
// crossed, and the router keeps routing after both.
func TestOversizeHandshakeRefused(t *testing.T) {
	flood := bytes.Repeat([]byte("7"), 8<<20)

	// A backend that answers every start line with the flood.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
					return // health probe
				}
				_, _ = conn.Write(flood) // fails once the router hangs up
			}()
		}
	}()
	good := newFakeBackend(t, serve.Reply{Event: serve.EventReady})

	refused := func(addr string, payload []byte, want string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = conn.Write(payload) // fails once the router hangs up
		}()
		var rep serve.Reply
		if err := json.NewDecoder(conn).Decode(&rep); err != nil {
			t.Fatalf("no reply: %v", err)
		}
		if rep.Event != serve.EventError || !strings.Contains(rep.Reason, want) {
			t.Fatalf("answered with %+v, want an error containing %q", rep, want)
		}
		conn.Close()
		<-wrote
	}

	_, addr := startRouter(t, Config{Backends: []string{good.addr()}})
	refused(addr, flood, "line too long")
	cs, err := serve.Dial(addr, serve.SessionOptions{ID: "after"})
	if err != nil {
		t.Fatalf("session after the endless start line: %v", err)
	}
	if _, _, err := cs.Finish(); err != nil {
		t.Fatalf("session after the endless start line: %v", err)
	}
	cs.Close()

	_, floodAddr := startRouter(t, Config{Backends: []string{ln.Addr().String()}})
	refused(floodAddr, []byte(`{"op":"start","id":"x"}`+"\n"), "backend handshake: line too long")
}
