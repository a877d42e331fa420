// Package serve is the streaming ASR decode service: a long-lived,
// stdlib-only TCP server that turns the repo's batch decode pipeline
// into the serving deployment the paper's accelerators target. Each
// connection is one decoder.Session fed frame by frame, and each frame
// lives its whole life on that connection's goroutine: the frame line
// is parsed without reflection (frame.go), scored on the session's own
// dnn.Exec of the plan it pinned at admission, and pushed into the
// search. No queue, no hand-off, no waiting for other sessions — and
// the same arithmetic as the offline CLIs, so transcripts match them
// bit for bit.
//
// The server fronts a model registry (internal/registry): N named
// (model, backend) variants served side by side, selected per session
// by the handshake's model field, with atomic plan-pointer hot-swap —
// in-flight sessions finish on the plan they pinned at admission, new
// sessions pick up reloaded weights.
//
// The production plumbing around that core is the point of the
// package: bounded admission (explicit reject with a retry-after hint
// instead of unbounded queue growth; unknown models get a structured
// reject listing the servable variants), bounded request lines,
// per-request deadlines and idle timeouts, graceful drain on shutdown
// (in-flight sessions finish, new ones are refused), recycled
// per-session decode state (a warm session decodes a frame without
// allocating), and full internal/obs instrumentation (active sessions,
// per-model session/frame counters, rejects, per-request latency). It
// is where the paper's "dark side" becomes operational: a 90%-pruned
// model inflates per-frame search cost, so under concurrent load the
// serve.request_seconds histogram shows the tail blowup that Figure
// 4's workload explosion predicts — now comparable across pruning
// levels within one process.
//
// Protocol and semantics are documented in docs/SERVING.md;
// cmd/asrserve is the binary, cmd/asrrouter the shard router in front
// of it, and Dial the client.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/registry"
)

// Config assembles a Server. Registry and Decoder are required;
// everything else has serving-grade defaults.
type Config struct {
	// Registry holds the named model variants this server offers;
	// sessions select one with the handshake's model field (empty =
	// the registry's default). Variant weights may be hot-swapped
	// while serving (registry.Variant.Swap / Reload): sessions in
	// flight finish on the plan they pinned at admission.
	Registry *registry.Registry
	// Decoder is the shared read-only search graph wrapper; any
	// number of sessions decode against it concurrently. All variants
	// share it, so every variant must produce the same senone set
	// (enforced by registry.Register).
	Decoder *decoder.Decoder
	// Decode configures each session's search (beam, store factory,
	// acoustic scale). The store factory is invoked once per session.
	Decode decoder.Config

	// MaxSessions bounds concurrently admitted sessions; starts
	// beyond it are rejected with a retry-after hint (default 64).
	MaxSessions int

	// IdleTimeout aborts a session when the client sends nothing for
	// this long (default 30s).
	IdleTimeout time.Duration
	// DefaultDeadline bounds a whole session when the client does not
	// set deadline_ms (default 2m).
	DefaultDeadline time.Duration
	// RetryAfter is the backoff hint attached to admission rejects
	// (default 250ms).
	RetryAfter time.Duration
}

func (c *Config) fillDefaults() error {
	if c.Registry == nil {
		return errors.New("serve: Config.Registry is required")
	}
	if c.Decoder == nil {
		return errors.New("serve: Config.Decoder is required")
	}
	if c.Registry.Len() == 0 {
		return errors.New("serve: Config.Registry has no variants")
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	return nil
}

// Server is the streaming decode service. Create with New, bind with
// Listen, run with Serve, stop with Shutdown.
type Server struct {
	cfg Config

	ln       net.Listener
	draining atomic.Bool
	sessions sync.WaitGroup // admitted sessions in flight
	sem      chan struct{}  // admission slots

	mu    sync.Mutex
	conns map[net.Conn]struct{} // open connections, for forced close

	// poolMu guards pool, the idle per-session state kept for reuse. A
	// decoder.Session retains its hypothesis store, token maps, and
	// arenas across Restart and an Exec its activations, so a recycled
	// session decodes the next utterance without allocating. The pool
	// never exceeds MaxSessions: state is only returned by a handler
	// that held an admission slot.
	poolMu sync.Mutex
	pool   []*pooled

	served atomic.Int64 // sessions completed (for the CLI summary)
}

// pooled is the per-session state the server recycles across
// connections: the decode session, an Exec of one plan, and the frame
// buffers — everything a frame touches.
type pooled struct {
	dec    *decoder.Session
	exec   *dnn.Exec
	line   []byte    // gathers a request line longer than the read buffer
	bits   []byte    // a frame's f64 bits, decoded from base64
	data   []float64 // a frame's features, unpacked from bits or decoded in place; cap ≥ InDim+1
	scores []float64 // log-posteriors, len = plan OutDim
}

// New validates cfg, applies defaults, and returns an unbound server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxSessions),
		conns: map[net.Conn]struct{}{},
	}, nil
}

// Registry exposes the server's model registry (for hot-swap wiring
// and startup logging).
func (s *Server) Registry() *registry.Registry { return s.cfg.Registry }

// Listen binds the server to addr ("localhost:0" picks a free port)
// and returns the resolved address. Call before Serve.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept loop; it blocks until Shutdown (returning
// nil) or a listener failure. One connection is one decode session.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("serve: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.track(conn, true)
		go s.handle(conn)
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Served reports the number of sessions completed successfully.
func (s *Server) Served() int64 { return s.served.Load() }

// Shutdown drains the server: the listener closes immediately (new
// connections are refused, and a session start racing the close is
// rejected with a "draining" reply), and in-flight sessions run to
// completion, their final replies written. If ctx expires first, the
// remaining connections are closed forcibly and ctx's error is
// returned. Shutdown is idempotent only in its drain effect; call it
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	// The mutex orders the drain flag against admissions: after it is
	// released, no handler can Add to the sessions WaitGroup anymore
	// (admit re-checks the flag under the same mutex), so Wait below
	// cannot race a first Add on an empty group.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done // handlers exit promptly once their conns are closed
		return ctx.Err()
	}
}

// admit claims an admission slot, or explains why it cannot. On
// success the caller owns one sessions WaitGroup count and one sem
// slot, both returned by session.end.
func (s *Server) admit() (ok bool, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false, "draining"
	}
	select {
	case s.sem <- struct{}{}:
	default:
		return false, "at capacity"
	}
	s.sessions.Add(1)
	return true, ""
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// take returns recycled per-session state from the pool, or fresh
// state, ready to decode under dcfg — the server's Decode config plus
// any per-session additions (the handshake's adaptive controller) —
// and to score on plan. It prefers state whose Exec already belongs
// to plan and otherwise builds one, so a session always scores on the
// plan it pinned. Recycling is invisible to clients: Restart is
// bit-identical to Decoder.Start with the same configuration, and a
// pooled session resets the controller at Restart, so a recycled
// adaptive session decides exactly like a fresh one.
func (s *Server) take(plan *dnn.Plan, dcfg decoder.Config) *pooled {
	s.poolMu.Lock()
	var p *pooled
	if n := len(s.pool); n > 0 {
		i := n - 1
		for j := n - 1; j >= 0; j-- {
			if s.pool[j].exec != nil && s.pool[j].exec.Plan() == plan {
				i = j
				break
			}
		}
		p = s.pool[i]
		s.pool[i] = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	}
	s.poolMu.Unlock()
	if p == nil {
		p = &pooled{}
	}
	if p.dec == nil || p.dec.Restart(dcfg) != nil {
		p.dec = s.cfg.Decoder.Start(dcfg)
	}
	if p.exec == nil || p.exec.Plan() != plan {
		p.exec = plan.NewExec()
	}
	if cap(p.data) < plan.InDim()+1 {
		p.data = make([]float64, 0, plan.InDim()+1) // the spare value: session.request
	}
	if cap(p.scores) < plan.OutDim() {
		p.scores = make([]float64, plan.OutDim())
	}
	p.scores = p.scores[:plan.OutDim()]
	return p
}

// put returns a session's state to the pool once its connection is
// done with it (finished, failed, or abandoned mid-decode — Restart
// recovers every case). An Exec of a plan the variant has since
// swapped out is dropped, so idle state never keeps old weights alive.
func (s *Server) put(p *pooled, v *registry.Variant) {
	if p.exec.Plan() != v.Plan() {
		p.exec = nil
	}
	s.poolMu.Lock()
	s.pool = append(s.pool, p)
	s.poolMu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}
