// Package router is the shard-routing front tier of the serving
// stack: a stdlib-only TCP proxy that spreads streaming decode
// sessions (the NDJSON protocol of internal/serve) across a fleet of
// backend asrserve processes. It is what turns "one process, many
// models" into "many processes, many models" — the horizontal
// scale-out leg of the registry/hot-swap refactor.
//
// Routing is by rendezvous (highest-random-weight) hashing on the
// session id from the start handshake: every router instance maps the
// same id to the same backend with no shared state and no
// coordination, and removing a backend only remaps the sessions that
// hashed to it. Health is probed by periodic TCP dials; an unhealthy
// backend is skipped in hash order, so sessions fail over
// deterministically to the next-preferred backend.
//
// The router never parses past the handshake: after forwarding the
// start line and inspecting the backend's first reply (ready or
// reject), it splices raw bytes in both directions. Backend replies —
// including rejects and their retry_after_ms backoff hints — reach
// the client byte-for-byte, which is what keeps the admission
// contract (docs/SERVING.md) end-to-end through the tier. Only when
// no backend is reachable at all does the router answer with its own
// reject, carrying its own retry-after hint.
package router

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config assembles a Router. Backends is required; everything else
// has serving-grade defaults.
type Config struct {
	// Backends are the asrserve addresses sessions shard across.
	Backends []string
	// HealthInterval is the period of the TCP health probes (default
	// 500ms).
	HealthInterval time.Duration
	// DialTimeout bounds each backend connect, for probes and for
	// session routing (default 2s).
	DialTimeout time.Duration
	// RetryAfter is the backoff hint on router-originated rejects —
	// no healthy backend reachable (default 250ms).
	RetryAfter time.Duration
	// HandshakeTimeout bounds reading the client's start line and the
	// backend's first reply (default 30s). Once a session is spliced,
	// the backend's own idle/deadline enforcement governs.
	HandshakeTimeout time.Duration
}

func (c *Config) fillDefaults() error {
	if len(c.Backends) == 0 {
		return errors.New("router: Config.Backends is required")
	}
	seen := map[string]bool{}
	for _, a := range c.Backends {
		if a == "" {
			return errors.New("router: empty backend address")
		}
		if seen[a] {
			return fmt.Errorf("router: duplicate backend %q", a)
		}
		seen[a] = true
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 30 * time.Second
	}
	return nil
}

// backend is one asrserve target with its last observed health.
// Backends start healthy (optimistic): a failed dial — probe or
// session — marks them down, a successful one marks them up.
type backend struct {
	addr    string
	healthy atomic.Bool
}

// Router is the shard-routing front tier. Create with New, bind with
// Listen, run with Serve, stop with Shutdown.
type Router struct {
	cfg      Config
	backends []*backend

	ln         net.Listener
	draining   atomic.Bool
	sessions   sync.WaitGroup
	healthStop chan struct{}
	healthDone chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	routed atomic.Int64
}

// New validates cfg, applies defaults, and returns an unbound router.
func New(cfg Config) (*Router, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:        cfg,
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
		conns:      map[net.Conn]struct{}{},
	}
	for _, addr := range cfg.Backends {
		b := &backend{addr: addr}
		b.healthy.Store(true)
		r.backends = append(r.backends, b)
	}
	obsBackendHealthy.Set(float64(len(r.backends)))
	return r, nil
}

// Listen binds the router to addr ("localhost:0" picks a free port)
// and returns the resolved address. Call before Serve.
func (r *Router) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound address (nil before Listen).
func (r *Router) Addr() net.Addr {
	if r.ln == nil {
		return nil
	}
	return r.ln.Addr()
}

// Routed reports sessions successfully spliced to a backend.
func (r *Router) Routed() int64 { return r.routed.Load() }

// Healthy reports how many backends the last probes found reachable.
func (r *Router) Healthy() int {
	n := 0
	for _, b := range r.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// Serve runs the health prober and the accept loop; it blocks until
// Shutdown (returning nil) or a listener failure.
func (r *Router) Serve() error {
	if r.ln == nil {
		return errors.New("router: Serve before Listen")
	}
	go r.probeLoop()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			if r.draining.Load() {
				return nil
			}
			return fmt.Errorf("router: accept: %w", err)
		}
		r.track(conn, true)
		r.mu.Lock()
		admitted := !r.draining.Load()
		if admitted {
			r.sessions.Add(1)
		}
		r.mu.Unlock()
		if !admitted {
			// Not counted in sessions: the drain must not wait for a
			// client that never sends its start line.
			go r.rejectDraining(conn)
			continue
		}
		go func() {
			defer r.sessions.Done()
			r.handle(conn)
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (r *Router) ListenAndServe(addr string) error {
	if _, err := r.Listen(addr); err != nil {
		return err
	}
	return r.Serve()
}

// Shutdown drains the router: the listener closes (new connections
// refused; racing accepts get a draining reject), spliced sessions
// run to completion, the prober stops. If ctx expires first the
// remaining connections are closed forcibly and ctx's error returned.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	r.draining.Store(true)
	r.mu.Unlock()
	if r.ln != nil {
		_ = r.ln.Close()
	}
	close(r.healthStop)

	done := make(chan struct{})
	go func() {
		r.sessions.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		r.closeConns()
		<-done
	}
	<-r.healthDone
	return err
}

// probeLoop refreshes backend health: one TCP dial per backend per
// interval (the accept loop of serve.Server answers and the probe
// hangs up before sending anything, which the server treats as a
// read-error connection — no session is admitted).
func (r *Router) probeLoop() {
	defer close(r.healthDone)
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.healthStop:
			return
		case <-ticker.C:
			for _, b := range r.backends {
				conn, err := net.DialTimeout("tcp", b.addr, r.cfg.DialTimeout)
				if err != nil {
					b.healthy.Store(false)
					obsDialFailures.Inc()
					continue
				}
				_ = conn.Close()
				b.healthy.Store(true)
			}
			obsBackendHealthy.Set(float64(r.Healthy()))
		}
	}
}

// rank orders the backends for a session id by rendezvous hashing:
// score(b) = fnv64a(id, 0x00, backend addr), descending. Every router
// instance computes the same order, so a fleet of routers shards
// identically without coordination. The id is hashed BEFORE the
// address: fnv's per-byte xor-multiply keeps states that share a long
// suffix nearly order-preserved, so hashing the address first makes
// one backend win almost every id — the trailing address bytes are
// what must differ per backend.
func (r *Router) rank(id string) []*backend {
	type scored struct {
		b *backend
		s uint64
	}
	order := make([]scored, len(r.backends))
	for i, b := range r.backends {
		h := fnv.New64a()
		_, _ = h.Write([]byte(id))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(b.addr))
		order[i] = scored{b: b, s: h.Sum64()}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].s != order[j].s {
			return order[i].s > order[j].s
		}
		return order[i].b.addr < order[j].b.addr
	})
	out := make([]*backend, len(order))
	for i, sc := range order {
		out[i] = sc.b
	}
	return out
}

// handle runs one client connection: read the start line, pick a
// backend, forward the handshake, then splice raw bytes until either
// side hangs up.
func (r *Router) handle(conn net.Conn) {
	defer r.track(conn, false)
	defer conn.Close()

	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	startLine, err := readLine(br, serve.MaxStartLine)
	if err != nil {
		if errors.Is(err, serve.ErrLineTooLong) {
			r.reply(conn, serve.Reply{Event: serve.EventError, Reason: err.Error()})
		}
		return
	}
	var req serve.Request
	if err := json.Unmarshal(startLine, &req); err != nil {
		r.reply(conn, serve.Reply{Event: serve.EventError, Reason: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if req.Op != serve.OpStart {
		r.reply(conn, serve.Reply{Event: serve.EventError,
			Reason: fmt.Sprintf("first message must be %q, got %q", serve.OpStart, req.Op)})
		return
	}

	// Try backends in rendezvous order, healthy first. A dial failure
	// marks the backend down and falls through to the next — the
	// deterministic failover — while a reachable backend's answer,
	// whatever it is, is final: its reject (with retry_after_ms) or
	// error is the client's to handle, byte-for-byte.
	for _, pass := range [2]bool{true, false} {
		for _, b := range r.rank(req.ID) {
			if b.healthy.Load() != pass {
				continue
			}
			bc, err := net.DialTimeout("tcp", b.addr, r.cfg.DialTimeout)
			if err != nil {
				b.healthy.Store(false)
				obsDialFailures.Inc()
				continue
			}
			b.healthy.Store(true)
			r.splice(conn, br, bc, startLine)
			return
		}
		// Second pass: every "unhealthy" backend gets one more chance —
		// probes are periodic, so a backend that just came up may still
		// be marked down.
	}
	obsLocalRejects.Inc()
	r.reply(conn, serve.Reply{
		Event:        serve.EventReject,
		Reason:       "no reachable backend",
		RetryAfterMS: r.cfg.RetryAfter.Milliseconds(),
	})
}

// splice forwards the handshake and then copies raw bytes both ways.
// The backend's first reply is inspected (reject vs ready) for the
// metrics but forwarded verbatim either way.
func (r *Router) splice(client net.Conn, clientR *bufio.Reader, backendConn net.Conn, startLine []byte) {
	defer backendConn.Close()

	_ = backendConn.SetDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	if _, err := backendConn.Write(startLine); err != nil {
		r.reply(client, serve.Reply{Event: serve.EventError, Reason: fmt.Sprintf("backend write: %v", err)})
		return
	}
	backendR := bufio.NewReader(backendConn)
	replyLine, err := readLine(backendR, serve.MaxReplyLine)
	if err != nil {
		r.reply(client, serve.Reply{Event: serve.EventError, Reason: fmt.Sprintf("backend handshake: %v", err)})
		return
	}
	_ = client.SetWriteDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	if _, err := client.Write(replyLine); err != nil {
		return
	}
	var rep serve.Reply
	if json.Unmarshal(replyLine, &rep) == nil && rep.Event == serve.EventReject {
		obsRejectsProxied.Inc()
		return
	}

	// Admitted: hand the timers back to the backend (its idle timeout
	// and session deadline govern from here) and splice. The backend
	// closes its side after the final result; that ends the
	// backend→client copy, which closes the client and unblocks the
	// client→backend copy.
	obsRouted.Inc()
	r.routed.Add(1)
	_ = client.SetDeadline(time.Time{})
	_ = backendConn.SetDeadline(time.Time{})
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		_, _ = io.Copy(backendConn, clientR)
		if tc, ok := backendConn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	_, _ = io.Copy(client, backendR)
	_ = client.Close()
	<-clientDone
}

// rejectDraining answers a connection accepted in the drain race.
func (r *Router) rejectDraining(conn net.Conn) {
	defer r.track(conn, false)
	defer conn.Close()
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	if _, err := readLine(br, serve.MaxStartLine); err != nil {
		return
	}
	obsLocalRejects.Inc()
	r.reply(conn, serve.Reply{
		Event:        serve.EventReject,
		Reason:       "draining",
		RetryAfterMS: r.cfg.RetryAfter.Milliseconds(),
	})
}

func (r *Router) reply(conn net.Conn, rep serve.Reply) {
	_ = conn.SetWriteDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	line, err := json.Marshal(rep)
	if err != nil {
		return
	}
	_, _ = conn.Write(append(line, '\n'))
}

func (r *Router) track(conn net.Conn, add bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if add {
		r.conns[conn] = struct{}{}
	} else {
		delete(r.conns, conn)
	}
}

func (r *Router) closeConns() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.conns {
		_ = c.Close()
	}
}

// readLine reads one protocol line of at most limit bytes, under the
// same cap rules as the server's own reads (serve.ReadLine), and
// returns a copy with its newline restored, ready to forward.
func readLine(br *bufio.Reader, limit int) ([]byte, error) {
	var buf []byte
	line, err := serve.ReadLine(br, limit, &buf)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, len(line)+1), line...), '\n'), nil
}
