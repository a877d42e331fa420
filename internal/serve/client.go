package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/control"
)

// RejectedError is returned by Dial when the server refuses the
// session. Capacity/draining rejects carry RetryAfter, the server's
// backoff hint; unknown-model rejects instead carry Available, the
// variant names the server can decode with. Permanent reports which
// kind this is — retrying a permanent reject cannot succeed.
type RejectedError struct {
	Reason     string
	RetryAfter time.Duration
	Available  []string
	permanent  bool // the server's permanent flag from the reject reply
}

func (e *RejectedError) Error() string {
	switch {
	case len(e.Available) > 0:
		return fmt.Sprintf("serve: session rejected: %s (available models: %v)", e.Reason, e.Available)
	case e.Permanent():
		return fmt.Sprintf("serve: session rejected: %s (permanent)", e.Reason)
	default:
		return fmt.Sprintf("serve: session rejected: %s (retry after %v)", e.Reason, e.RetryAfter)
	}
}

// Permanent reports whether retrying is pointless: the server flagged
// the reject permanent (unknown model, invalid controller config), or
// — against servers predating the flag — it named the models it does
// serve and ours is not one of them.
func (e *RejectedError) Permanent() bool { return e.permanent || len(e.Available) > 0 }

// SessionOptions parameterize one client session.
type SessionOptions struct {
	ID string
	// Model selects the server's registered variant to decode with
	// ("" = the server's default).
	Model string
	// Deadline bounds the whole session server-side (0 = the server's
	// default).
	Deadline time.Duration
	// PartialEvery asks for a partial hypothesis every N frames;
	// partials are collected by Finish.
	PartialEvery int
	// Control, when non-nil, asks the server to decode this session
	// under the adaptive beam controller (internal/control). An invalid
	// configuration comes back as a permanent *RejectedError.
	Control *control.Config
	// DialTimeout bounds the TCP connect (0 = 10s).
	DialTimeout time.Duration
}

// ClientSession is one streaming decode against an asrserve instance:
// Dial, PushFrame for every spliced feature vector, then Finish. Not
// safe for concurrent use.
type ClientSession struct {
	conn  net.Conn
	bw    *bufio.Writer
	enc   *json.Encoder
	dec   *json.Decoder
	line  []byte // PushFrame's encoded frame, reused
	model string // resolved variant name from the ready reply
}

// Model returns the variant name the server resolved for this session
// (the default variant's name when SessionOptions.Model was empty and
// the server is model-aware; "" against a pre-registry server).
func (cs *ClientSession) Model() string { return cs.model }

// Dial opens a session. A *RejectedError means admission control
// turned the session away and carries the server's retry-after hint.
func Dial(addr string, opts SessionOptions) (*ClientSession, error) {
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	cs := &ClientSession{
		conn: conn,
		bw:   bufio.NewWriter(conn),
		dec:  json.NewDecoder(bufio.NewReader(conn)),
	}
	cs.enc = json.NewEncoder(cs.bw)
	err = cs.send(Request{
		Op:           OpStart,
		ID:           opts.ID,
		Model:        opts.Model,
		DeadlineMS:   opts.Deadline.Milliseconds(),
		PartialEvery: opts.PartialEvery,
		Control:      opts.Control,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	var rep Reply
	if err := cs.dec.Decode(&rep); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: reading admission reply: %w", err)
	}
	switch rep.Event {
	case EventReady:
		cs.model = rep.Model
		return cs, nil
	case EventReject:
		conn.Close()
		return nil, &RejectedError{
			Reason:     rep.Reason,
			RetryAfter: time.Duration(rep.RetryAfterMS) * time.Millisecond,
			Available:  rep.Available,
			permanent:  rep.Permanent,
		}
	default:
		conn.Close()
		return nil, fmt.Errorf("serve: unexpected admission reply %q: %s", rep.Event, rep.Reason)
	}
}

// PushFrame streams one spliced feature vector, one write per frame.
// Replies (partials, errors) are not read here — the stream stays
// write-only until Finish, so frames pipeline without a per-frame
// round trip. The line is encoded without reflection into a reused
// buffer, byte for byte what encoding/json would write; a NaN or ±Inf
// feature is an error and nothing is sent.
func (cs *ClientSession) PushFrame(frame []float64) error {
	line, err := appendFrame(cs.line[:0], frame)
	if err != nil {
		return err
	}
	cs.line = line
	// Straight to the socket: send flushes bw after every message, so
	// nothing buffered can be overtaken.
	_, err = cs.conn.Write(line)
	return err
}

// Finish ends the session and reads replies until the final result,
// returning it along with any partial hypotheses that were streamed.
// A server-side error event is returned as an error.
func (cs *ClientSession) Finish() (Reply, []Reply, error) {
	var partials []Reply
	if err := cs.send(Request{Op: OpFinish}); err != nil {
		return Reply{}, nil, err
	}
	for {
		var rep Reply
		if err := cs.dec.Decode(&rep); err != nil {
			return Reply{}, partials, fmt.Errorf("serve: reading result: %w", err)
		}
		switch rep.Event {
		case EventPartial:
			partials = append(partials, rep)
		case EventResult:
			return rep, partials, nil
		case EventError:
			return Reply{}, partials, fmt.Errorf("serve: session failed: %s", rep.Reason)
		default:
			return Reply{}, partials, fmt.Errorf("serve: unexpected reply %q", rep.Event)
		}
	}
}

// Close releases the connection; safe after Finish or on error paths.
func (cs *ClientSession) Close() error { return cs.conn.Close() }

func (cs *ClientSession) send(req Request) error {
	if err := cs.enc.Encode(req); err != nil {
		return err
	}
	return cs.bw.Flush()
}
