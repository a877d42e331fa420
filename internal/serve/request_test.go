package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/decoder"
	"repro/internal/obs"
	"repro/internal/speech"
)

// scriptConn is an in-memory net.Conn: its reads hand out in in chunks
// of the scripted sizes, cycled, then io.EOF; its writes collect in
// out; its deadlines are ignored.
type scriptConn struct {
	in    []byte
	sizes []int
	k     int
	out   bytes.Buffer
}

func (c *scriptConn) Read(b []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := len(c.in)
	if len(c.sizes) > 0 {
		n = c.sizes[c.k%len(c.sizes)]
		c.k++
	}
	n = copy(b, c.in[:min(n, len(c.in))])
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(b []byte) (int, error)      { return c.out.Write(b) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzRequest drives Server.handle over an in-memory connection with
// any sequence of request lines — starts (plain, with partials, with an
// unknown model, with a 1 ms deadline), canonical and text frames,
// frames of the wrong width or with a NaN, finishes, garbage, blank
// lines, partial lines and lines over the cap, plus the fuzzer's own
// bytes — handed to the server in reads of any size, on both codec
// bodies. Whatever arrives, handle returns without a panic; its
// replies are JSON lines; a session that is not admitted gets at most
// one reply, an error or reject; an admitted one gets ready, partials,
// and exactly one terminal result or error, last; and the admission
// slot and serve.sessions_active are back where they started.
func FuzzRequest(f *testing.F) {
	fx := newFixture(f)
	frames := speech.SpliceAll(fx.utts[0].Frames, fx.topo.Context)
	inDim := len(frames[0])
	text, err := json.Marshal(Request{Op: OpFrame, Data: frames[1]})
	if err != nil {
		f.Fatal(err)
	}
	nan := append([]float64(nil), frames[2]...)
	nan[inDim/2] = math.NaN()
	// Each token byte below 16 picks one of these; any other byte is
	// sent as it is.
	pieces := [][]byte{
		[]byte(`{"op":"start","id":"fz"}` + "\n"),
		appendFrame(nil, floatBytes(frames[0]...)),
		[]byte(`{"op":"finish"}` + "\n"),
		[]byte("garbage\n"),
		appendFrame(nil, floatBytes(frames[3]...))[:40], // a partial line
		append(bytes.Repeat([]byte("x"), frameLineCap(inDim)+1), '\n'),
		appendFrame(nil, floatBytes(nan...)),
		append(text, '\n'),
		[]byte(`{"op":"start","id":"fz","partial_every":2}` + "\n"),
		[]byte(`{"op":"start","model":"nope"}` + "\n"),
		[]byte(" \t\r\n"),
		appendFrame(nil, floatBytes(frames[4][1:]...)),
		[]byte(`{"op":"start","deadline_ms":1}` + "\n"),
		[]byte(`{"op":"frame","f64":"!!!!"}` + "\n"),
		[]byte(`{"op":"bogus"}` + "\n"),
		bytes.Repeat(appendFrame(nil, floatBytes(frames[5]...)), 30),
	}
	f.Add([]byte{0, 1, 1, 1, 2}, []byte{})
	f.Add([]byte{8, 1, 1, 1, 1, 1, 7, 2}, []byte{0, 5, 200})
	f.Add([]byte{0, 15, 15, 4, 1, 2}, []byte{6})
	f.Add([]byte{0, 1, 5, 1, 2}, []byte{255})
	f.Add([]byte{0, 6, 2}, []byte{})
	f.Add([]byte{0, 11}, []byte{})
	f.Add([]byte{0, 1, 13}, []byte{})
	f.Add([]byte{0, 10, 1, 3}, []byte{})
	f.Add([]byte{0, 4}, []byte{1})
	f.Add([]byte{12, 1, 1, 2}, []byte{})
	f.Add([]byte{9, 0}, []byte{})
	f.Add([]byte{5}, []byte{})
	f.Add([]byte{}, []byte{})
	f.Add([]byte("{\"op\":\"start\"}\n\x01\x02"), []byte{3})
	f.Add([]byte{0, 14}, []byte{})

	obs.Enable()
	defer obs.Disable()
	f.Fuzz(func(t *testing.T, script, cuts []byte) {
		var in []byte
		for _, b := range script {
			if int(b) < len(pieces) {
				in = append(in, pieces[b]...)
			} else {
				in = append(in, b)
			}
		}
		var sizes []int
		for _, c := range cuts {
			sizes = append(sizes, int(c)+1)
		}
		codecBodies(func(body string) {
			srv, err := New(Config{
				Registry: fx.registry(t),
				Decoder:  fx.dec,
				Decode:   decoder.Config{Beam: 15, AcousticScale: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			active := obsSessionsActive.Value()
			conn := &scriptConn{in: bytes.Clone(in), sizes: sizes}
			srv.track(conn, true)
			srv.handle(conn)
			if err := checkReplies(conn.out.String()); err != nil {
				t.Fatalf("%s: %v\nreplies:\n%s", body, err, conn.out.String())
			}
			if n := len(srv.sem); n != 0 {
				t.Fatalf("%s: %d admission slots held after handle returned", body, n)
			}
			if got := obsSessionsActive.Value(); got != active {
				t.Fatalf("%s: serve.sessions_active %v after handle returned, was %v", body, got, active)
			}
		})
	})
}

// checkReplies checks one connection's reply lines: JSON; before
// admission at most one, an error or reject; after a ready, partials
// and then exactly one terminal result or error, last.
func checkReplies(out string) error {
	if out == "" {
		return nil // the connection ended before a whole first line
	}
	if !strings.HasSuffix(out, "\n") {
		return fmt.Errorf("reply stream ends mid-line")
	}
	var events []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var rep Reply
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return fmt.Errorf("reply %q is not JSON: %v", line, err)
		}
		events = append(events, rep.Event)
	}
	if events[0] != EventReady {
		if len(events) != 1 || (events[0] != EventError && events[0] != EventReject) {
			return fmt.Errorf("unadmitted connection got %v, want one error or reject", events)
		}
		return nil
	}
	last := len(events) - 1
	if last == 0 || (events[last] != EventResult && events[last] != EventError) {
		return fmt.Errorf("admitted session got %v, want a terminal result or error last", events)
	}
	for _, e := range events[1:last] {
		if e != EventPartial {
			return fmt.Errorf("admitted session got %v, want only partials before the terminal reply", events)
		}
	}
	return nil
}
