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
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/obs"
	"repro/internal/registry"
)

// MaxStartLine caps the start line, read before admission: a
// handshake is a few short strings and numbers, so anything longer is
// refused before it can cost memory. The router reads start lines
// under the same cap.
const MaxStartLine = 4 << 10

// frameLineCap caps every line after admission. It is derived from the
// pinned plan's input width: the text encoding of a frame, which the
// server still accepts, spends at most 25 bytes and a comma per
// feature, so 32 per feature plus slack for the envelope and for other
// JSON encoders' spacing never refuses a frame a client can honestly
// send. The canonical base64 line needs under 11 per feature.
func frameLineCap(inDim int) int { return 1<<10 + 32*inDim }

// ErrLineTooLong is the error ReadLine returns for a line over its cap.
var ErrLineTooLong = errors.New("line too long")

// session is the per-connection state of one streaming decode.
type session struct {
	srv  *Server
	conn net.Conn
	in   *deadlineReader // conn as br reads it; holds the session deadline
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
}

// deadlineReader is a connection as its buffered reader sees it: every
// Read arms the read deadline at the idle timeout from now or the
// session deadline, whichever comes first, and then reads. bufio reads
// only when its buffer is empty, so the deadline costs one clock read
// and one SetReadDeadline per socket read rather than per line, and
// the idle timeout counts from when the server starts waiting on the
// socket. Lines already buffered are served without a read.
type deadlineReader struct {
	conn     net.Conn
	idle     time.Duration
	deadline time.Time // session deadline; zero before admission
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	expiry := time.Now().Add(r.idle)
	if !r.deadline.IsZero() && r.deadline.Before(expiry) {
		expiry = r.deadline
	}
	_ = r.conn.SetReadDeadline(expiry)
	return r.conn.Read(p)
}

// connBufs recycles the read and write buffers of finished
// connections, so a session leaves no buffer garbage behind and the
// heap peak does not follow the session rate.
var connBufs = sync.Pool{New: func() any {
	return &connBuf{br: bufio.NewReader(nil), bw: bufio.NewWriter(nil)}
}}

// connBuf is one connection's deadline reader and the buffered reader
// over it, and its buffered writer.
type connBuf struct {
	in deadlineReader
	br *bufio.Reader
	bw *bufio.Writer
}

// takeConnBuf returns recycled buffers reset onto conn, reads under
// the idle timeout idle. Reset drops whatever a previous connection
// left in them, so its unread input and unflushed output never reach
// this one.
func takeConnBuf(conn net.Conn, idle time.Duration) *connBuf {
	b := connBufs.Get().(*connBuf)
	b.in = deadlineReader{conn: conn, idle: idle}
	b.br.Reset(&b.in)
	b.bw.Reset(conn)
	return b
}

// put detaches the buffers from their connection and recycles them.
func (b *connBuf) put() {
	b.in = deadlineReader{}
	b.br.Reset(nil)
	b.bw.Reset(nil)
	connBufs.Put(b)
}

// handle runs one connection: admission, then the start/frame/finish
// message loop. Every exit path sends a terminal reply (reject,
// result, or error) unless the connection itself is gone.
func (s *Server) handle(conn net.Conn) {
	defer s.track(conn, false)
	defer conn.Close()

	buf := takeConnBuf(conn, s.cfg.IdleTimeout)
	defer buf.put()
	c := &session{
		srv:  s,
		conn: conn,
		in:   &buf.in,
		br:   buf.br,
		bw:   buf.bw,
		enc:  json.NewEncoder(buf.bw),
	}

	// The start message is read under the idle timeout so a dialed-
	// but-silent connection cannot hold a handler goroutine forever.
	var startBuf []byte
	line, err := c.readLine(MaxStartLine, &startBuf)
	if err != nil {
		if errors.Is(err, ErrLineTooLong) {
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
	c.in.deadline = time.Now().Add(deadline)

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

// next reads and parses the next request line.
func (c *session) next() (Request, error) {
	line, err := c.readLine(c.lineCap, &c.p.line)
	if err != nil {
		return Request{}, err
	}
	return c.request(line)
}

// request parses a request line. A frame in the canonical shape is
// decoded without reflection into the pooled buffers; any other line
// goes through encoding/json. A frame that arrives as bits comes back
// with its features in Data either way.
func (c *session) request(line []byte) (Request, error) {
	if useAVX2 && len(line) == canonicalFrameLine(c.inDim) {
		// The canonical line's length for this plan: decode straight
		// into the features buffer, whose spare value holds the up to
		// two bytes the decoder may claim beyond 8*inDim, so the bits
		// land there (take sizes it).
		if bits, ok := parseFrame(line, f64Bytes(c.p.data[:c.inDim+1])); ok {
			data := c.p.data[:c.inDim]
			if len(bits) == 8*c.inDim && finiteAVX2(data) {
				return Request{Op: OpFrame, Data: data}, nil
			}
			// The length or finiteness refusal, in features' words.
			// appendFeatures rewrites each value it reads with
			// itself, so the aliasing is harmless.
			return c.features(bits)
		}
	} else if bits, ok := parseFrame(line, c.p.bits); ok {
		c.p.bits = bits
		return c.features(bits)
	}
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, err
	}
	if req.Op == OpFrame && req.F64 != nil {
		if req.Data != nil {
			return Request{}, errors.New("frame carries both data and f64")
		}
		return c.features(req.F64)
	}
	return req, nil
}

// features turns a frame's f64 bits into its features, in the pooled
// data buffer. The bits must hold exactly the plan's input width, and
// every value must be finite.
func (c *session) features(bits []byte) (Request, error) {
	if len(bits) != 8*c.inDim {
		return Request{}, fmt.Errorf("frame has %d bytes of f64 bits, model wants %d (%d features)", len(bits), 8*c.inDim, c.inDim)
	}
	data, err := appendFeatures(c.p.data[:0], bits)
	c.p.data = data
	if err != nil {
		return Request{}, err
	}
	return Request{Op: OpFrame, Data: data}, nil
}

// readLine returns the next non-blank line without its newline. Its
// reads run under the idle timeout and the session deadline
// (deadlineReader), whose expiry it maps to a deadline error. The line
// is read by ReadLine under limit; the result is valid until the next
// call.
func (c *session) readLine(limit int, buf *[]byte) ([]byte, error) {
	for {
		line, err := ReadLine(c.br, limit, buf)
		if err != nil {
			if deadline := c.in.deadline; !deadline.IsZero() && !time.Now().Before(deadline) {
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

// ReadLine reads one line from br, newline dropped, of at most limit
// bytes. A longer line is refused with ErrLineTooLong once limit bytes
// have been read, so the caller never holds more than that, whether
// or not a newline ever comes. A final line cut short by EOF counts as
// a line. Lines longer than br's buffer are gathered in *buf; the
// result is valid until the next read from br.
func ReadLine(br *bufio.Reader, limit int, buf *[]byte) ([]byte, error) {
	*buf = (*buf)[:0]
	for {
		frag, err := br.ReadSlice('\n')
		n := len(*buf) + len(frag)
		if err == nil {
			n-- // the newline
		}
		if n > limit {
			return nil, fmt.Errorf("%w: over %d bytes", ErrLineTooLong, limit)
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
