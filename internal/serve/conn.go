package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/control"
	"repro/internal/obs"
	"repro/internal/registry"
)

// maxStartLine caps the start line, read before admission: a handshake
// is a few short strings and numbers, so anything longer is refused
// before it can cost memory.
const maxStartLine = 4 << 10

// frameLineCap caps every line after admission. It is derived from the
// pinned plan's input width: the canonical encoding spends at most 25
// bytes and a comma per feature, so 32 per feature plus slack for the
// envelope and for other JSON encoders' spacing never refuses a frame
// a client can honestly send.
func frameLineCap(inDim int) int { return 1<<10 + 32*inDim }

// errLineTooLong ends a session whose next line exceeds its cap.
var errLineTooLong = errors.New("request line too long")

// session is the per-connection state of one streaming decode.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  *json.Encoder

	// Pinned at admission: the model variant and, through p.exec, the
	// compiled plan that was current then. The pin outlives hot-swaps —
	// this session keeps scoring against exactly these weights until it
	// ends.
	variant  *registry.Variant
	p        *pooled
	inDim    int
	lineCap  int
	frameCtr *obs.Counter // per-model frame counter child
	deadline time.Time    // session deadline; zero before admission
}

// handle runs one connection: admission, then the start/frame/finish
// message loop. Every exit path sends a terminal reply (reject,
// result, or error) unless the connection itself is gone.
func (s *Server) handle(conn net.Conn) {
	defer s.track(conn, false)
	defer conn.Close()

	c := &session{
		srv:  s,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	c.enc = json.NewEncoder(c.bw)

	// The start message is read under the idle timeout so a dialed-
	// but-silent connection cannot hold a handler goroutine forever.
	var startBuf []byte
	line, err := c.readLine(maxStartLine, &startBuf)
	if err != nil {
		if errors.Is(err, errLineTooLong) {
			obsErrors.Inc()
			_ = c.reply(Reply{Event: EventError, Reason: err.Error()})
		}
		return
	}
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		obsErrors.Inc()
		_ = c.reply(Reply{Event: EventError, Reason: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if req.Op != OpStart {
		_ = c.reply(Reply{Event: EventError, Reason: fmt.Sprintf("first message must be %q, got %q", OpStart, req.Op)})
		obsErrors.Inc()
		return
	}

	// Resolve the model before spending an admission slot: an unknown
	// model is a client error, not load, so the reject is structured
	// (the servable variant names ride along) and carries no
	// retry-after — backing off will not make the variant exist.
	variant, ok := s.cfg.Registry.Resolve(req.Model)
	if !ok {
		obsRejects.Inc()
		_ = c.reply(Reply{
			Event:     EventReject,
			Reason:    fmt.Sprintf("unknown model %q", req.Model),
			Available: s.cfg.Registry.Names(),
			Permanent: true,
		})
		return
	}

	// Likewise the controller config: invalid parameters are a client
	// error, validated before spending an admission slot, and the
	// reject is permanent — resending the same config cannot succeed.
	dcfg := s.cfg.Decode
	if req.Control != nil {
		ctl, err := control.New(*req.Control)
		if err != nil {
			obsRejects.Inc()
			_ = c.reply(Reply{Event: EventReject, Reason: err.Error(), Permanent: true})
			return
		}
		dcfg.Policy = ctl
	}

	ok, reason := s.admit()
	if !ok {
		obsRejects.Inc()
		_ = c.reply(Reply{
			Event:        EventReject,
			Reason:       reason,
			RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
		})
		return
	}

	// Admitted: from here on every way out goes through end, once.
	c.variant = variant
	c.p = s.take(variant.Plan(), dcfg)
	c.inDim = c.p.exec.Plan().InDim()
	c.lineCap = frameLineCap(c.inDim)
	c.frameCtr = obsModelFrames.With(variant.Name())
	obsSessionsTotal.Inc()
	obsModelSessions.With(variant.Name()).Inc()
	obsSessionsActive.Add(1)

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	c.deadline = time.Now().Add(deadline)

	if err := c.reply(Reply{Event: EventReady, Session: req.ID, Model: variant.Name()}); err != nil {
		obsErrors.Inc()
		c.end(nil)
		return
	}
	sp := obsRequestTime.Start()
	final := c.run(req.PartialEvery)
	sp.Stop()
	c.end(final)
}

// run drives the decode loop after admission and returns the
// session's terminal reply — its result or error — or nil when the
// connection is gone and nothing can be sent.
func (c *session) run(partialEvery int) *Reply {
	frames := 0
	for {
		req, err := c.next()
		if err != nil {
			return c.fail(err)
		}
		switch req.Op {
		case OpFrame:
			if err := c.frame(req.Data); err != nil {
				return c.fail(err)
			}
			frames++
			if partialEvery > 0 && frames%partialEvery == 0 {
				words, _ := c.p.dec.Partial()
				if err := c.reply(Reply{Event: EventPartial, Words: words, Frames: frames}); err != nil {
					obsErrors.Inc()
					return nil
				}
			}
		case OpFinish:
			res := c.p.dec.Finish()
			return &Reply{Event: EventResult, OK: res.OK, Words: res.Words, Cost: res.Cost, Frames: frames}
		default:
			return c.fail(fmt.Errorf("unknown op %q", req.Op))
		}
	}
}

// frame scores one frame on the session's own Exec and advances its
// search. Nothing here waits for another session: the frame's whole
// life is this goroutine.
func (c *session) frame(data []float64) error {
	if len(data) != c.inDim {
		return fmt.Errorf("frame has %d features, model wants %d", len(data), c.inDim)
	}
	c.p.exec.LogPosteriors(c.p.scores, data)
	if err := c.p.dec.PushFrame(c.p.scores); err != nil {
		return err
	}
	c.frameCtr.Inc()
	return nil
}

// end closes an admitted session. The order is the contract: the
// decode state goes back to the pool, the admission slot is released
// and the counters settle, and only then is the terminal reply
// written. A client holding its result or error can therefore take the
// slot again at once, and reads a Served() and a
// serve.sessions_active that already count this session as over. The
// drain's WaitGroup alone is released after the reply, so a graceful
// Shutdown never returns with a finished session's reply unsent.
func (c *session) end(final *Reply) {
	c.srv.put(c.p, c.variant)
	c.p = nil
	<-c.srv.sem
	if final != nil && final.Event == EventResult {
		c.srv.served.Add(1)
	}
	obsSessionsActive.Add(-1)
	if final != nil {
		if err := c.reply(*final); err != nil && final.Event == EventResult {
			obsErrors.Inc()
		}
	}
	c.srv.sessions.Done()
}

// next reads and parses the next request line. A frame in the
// canonical shape is parsed in place into the pooled data slice;
// anything else goes through encoding/json.
func (c *session) next() (Request, error) {
	line, err := c.readLine(c.lineCap, &c.p.line)
	if err != nil {
		return Request{}, err
	}
	if data, ok := parseFrame(line, c.p.data); ok {
		c.p.data = data
		return Request{Op: OpFrame, Data: data}, nil
	}
	var req Request
	err = json.Unmarshal(line, &req)
	return req, err
}

// readLine returns the next non-blank line without its newline, under
// the idle timeout and the session deadline, mapping their expiry to a
// deadline error. A line longer than limit is refused with
// errLineTooLong once limit bytes have been read, so the connection
// never holds more than that. Lines longer than the read buffer are
// gathered in *buf; the result is valid until the next call.
func (c *session) readLine(limit int, buf *[]byte) ([]byte, error) {
	expiry := time.Now().Add(c.srv.cfg.IdleTimeout)
	if !c.deadline.IsZero() && c.deadline.Before(expiry) {
		expiry = c.deadline
	}
	_ = c.conn.SetReadDeadline(expiry)
	for {
		line, err := c.gather(limit, buf)
		if err != nil {
			if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
				return nil, context.DeadlineExceeded
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil, fmt.Errorf("idle timeout: %w", os.ErrDeadlineExceeded)
			}
			return nil, err
		}
		for _, b := range line {
			if b != ' ' && b != '\t' && b != '\r' {
				return line, nil
			}
		}
	}
}

// gather reads one line, newline dropped, of at most limit bytes. A
// final line cut short by EOF counts as a line.
func (c *session) gather(limit int, buf *[]byte) ([]byte, error) {
	*buf = (*buf)[:0]
	for {
		frag, err := c.br.ReadSlice('\n')
		n := len(*buf) + len(frag)
		if err == nil {
			n-- // the newline
		}
		if n > limit {
			return nil, fmt.Errorf("%w: over %d bytes", errLineTooLong, limit)
		}
		switch {
		case err == nil && len(*buf) == 0:
			return frag[:n], nil // the whole line is in the read buffer
		case err == nil, err == io.EOF && n > 0:
			*buf = append(*buf, frag...)
			return (*buf)[:n], nil
		case err == bufio.ErrBufferFull:
			*buf = append(*buf, frag...)
		default:
			return nil, err
		}
	}
}

// fail classifies a session-fatal condition for the metrics — deadline
// and idle expiry apart from protocol and I/O errors — and returns the
// error reply that ends the session.
func (c *session) fail(err error) *Reply {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		obsDeadlineExceeded.Inc()
	} else {
		obsErrors.Inc()
	}
	return &Reply{Event: EventError, Reason: err.Error()}
}

// reply writes one reply line and flushes it to the socket. The
// write deadline keeps a dead peer from pinning the handler (and,
// during drain, the whole shutdown) on a full send buffer.
func (c *session) reply(r Reply) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
	if err := c.enc.Encode(r); err != nil {
		return err
	}
	return c.bw.Flush()
}
