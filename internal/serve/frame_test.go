package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/decoder"
	"repro/internal/speech"
)

// floatBytes packs values as the fuzzer's byte input: 8 little-endian
// bytes of IEEE-754 bits each.
func floatBytes(vs ...float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// sameFloats reports whether a and b hold the same values bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzFrameCodec pins the hand-rolled frame codec against encoding/json,
// reading each input two ways:
//
//   - as float64 bits: for a finite vector, appendFrame's bytes equal
//     json.Marshal(Request{Op: OpFrame, Data: x}) plus a newline and
//     parse back to x; a NaN or ±Inf makes appendFrame fail with
//     nothing appended, as json.Marshal fails;
//   - as a line: whatever parseFrame accepts, json.Unmarshal also
//     accepts, into a bit-identical Request.
func FuzzFrameCodec(f *testing.F) {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99999e-7, 1e20,
		1e21, 1.5e21, -1e21, 123456789012345678, 5e-324, 2.2250738585072014e-308,
		1.1e-310, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1e-100, 1e100, -3.25, 0.30000000000000004,
	}
	f.Add(floatBytes(special...))
	for _, v := range special {
		f.Add(floatBytes(v))
	}
	f.Add([]byte{})
	f.Add(floatBytes(1, math.NaN()))
	f.Add(floatBytes(math.Inf(1)))
	f.Add(floatBytes(-2, math.Inf(-1)))
	for _, line := range []string{
		`{"op":"frame","data":[1,2.5,-0,1e-7]}`,
		`{"op":"frame","data":[0x1p-2]}`,
		`{"op":"frame","data":[NaN]}`,
		`{"op":"frame","data":[Infinity]}`,
		`{"op":"frame","data":[-Infinity]}`,
		`{"op":"frame","data":[+1]}`,
		`{"op":"frame","data":[.5]}`,
		`{"op":"frame","data":[5.]}`,
		`{"op":"frame","data":[1E5,1e+5,1E-5]}`,
		`{"op":"frame","data":[1e400]}`,
		`{"op":"frame","data":[1e-400]}`,
		`{"op":"frame","data":[01]}`,
		`{"op":"frame","data":[-]}`,
		`{"op":"frame","data":[1,]}`,
		`{"op":"frame","data":[1 ,2]}`,
		`{"op":"frame","data":[ 1]}`,
		`{"op":"frame", "data":[1]}`,
		`{"data":[1],"op":"frame"}`,
		`{"op":"frame","data":[]}`,
		`{"op":"frame"}`,
		`{"op":"finish"}`,
		`{"op":"frame","data":[1_000]}`,
		`{"op":"frame","data":[1]}}`,
	} {
		f.Add([]byte(line))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		// The input as a line.
		if data, ok := parseFrame(in, nil); ok {
			var req Request
			if err := json.Unmarshal(in, &req); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", in, err)
			}
			if !sameFloats(req.Data, data) {
				t.Fatalf("%q: fast path %v, encoding/json %v", in, data, req.Data)
			}
			req.Data = nil
			if fmt.Sprintf("%+v", req) != fmt.Sprintf("%+v", Request{Op: OpFrame}) {
				t.Fatalf("%q: encoding/json decoded %+v beside the data", in, req)
			}
		}

		// The input as float64 bits.
		x := make([]float64, len(in)/8)
		finite := true
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
			finite = finite && !math.IsNaN(x[i]) && !math.IsInf(x[i], 0)
		}
		prefix := []byte("prefix")
		got, err := appendFrame(prefix, x)
		want, jerr := json.Marshal(Request{Op: OpFrame, Data: x})
		if !finite {
			if err == nil || jerr == nil || len(got) != len(prefix) {
				t.Fatalf("non-finite %v: appendFrame err %v, wrote %q; json.Marshal err %v", x, err, got[len(prefix):], jerr)
			}
			return
		}
		if err != nil || jerr != nil {
			t.Fatalf("%v: appendFrame err %v, json.Marshal err %v", x, err, jerr)
		}
		if !bytes.Equal(got[len(prefix):], append(want, '\n')) {
			t.Fatalf("%v:\nappendFrame %q\njson        %q", x, got[len(prefix):], want)
		}
		if len(x) > 0 {
			back, ok := parseFrame(got[len(prefix):len(got)-1], nil)
			if !ok || !sameFloats(back, x) {
				t.Fatalf("%v: encoded line does not parse back (ok %v, got %v)", x, ok, back)
			}
		}
	})
}

// replayConn is a net.Conn whose reads replay one byte stream forever
// and whose writes vanish: the frame path without a socket.
type replayConn struct {
	net.Conn
	stream []byte
	off    int
}

func (r *replayConn) Read(b []byte) (int, error) {
	n := copy(b, r.stream[r.off:])
	r.off = (r.off + n) % len(r.stream)
	return n, nil
}

func (r *replayConn) Write(b []byte) (int, error)     { return len(b), nil }
func (r *replayConn) SetReadDeadline(time.Time) error { return nil }

// TestFramePathZeroAlloc is the serving path's allocation gate: once
// warm, a whole utterance — each frame encoded by the client's
// PushFrame, read and parsed by the server, scored on the session's
// Exec and pushed into its decode session — allocates nothing.
func TestFramePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds checked without -race")
	}
	f := newFixture(t)
	srv, err := New(Config{Net: f.net.Clone(), Decoder: f.dec, Decode: decoder.Config{Beam: 15, AcousticScale: 1}})
	if err != nil {
		t.Fatal(err)
	}
	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)
	var stream []byte
	for _, fr := range frames {
		if stream, err = appendFrame(stream, fr); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := srv.Registry().Resolve("")
	conn := &replayConn{stream: stream}
	c := &session{srv: srv, conn: conn, br: bufio.NewReader(conn), variant: v}
	c.p = srv.take(v.Plan(), srv.cfg.Decode)
	c.inDim = v.Plan().InDim()
	c.lineCap = frameLineCap(c.inDim)
	c.frameCtr = obsModelFrames.With(v.Name())
	client := &ClientSession{conn: conn}

	utterance := func() {
		if err := c.p.dec.Restart(srv.cfg.Decode); err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			if err := client.PushFrame(fr); err != nil {
				t.Fatal(err)
			}
			req, err := c.next()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.frame(req.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	utterance()
	utterance()
	if allocs := testing.AllocsPerRun(5, utterance); allocs != 0 {
		t.Errorf("warm frame path allocates %.1f times per %d-frame utterance, want 0", allocs, len(frames))
	}
}

// TestOversizeLineRefused pins the bounded read path: a line with no
// newline in sight — after admission and as the very first line — is
// answered with one error reply once the cap is crossed, the session
// does not count as served, and its admission slot is free again.
func TestOversizeLineRefused(t *testing.T) {
	f := newFixture(t)
	srv, addr, stop := f.start(t, func(c *Config) { c.MaxSessions = 1 })
	defer stop()

	flood := bytes.Repeat([]byte("7"), 8<<20)
	refused := func(conn net.Conn, replies *json.Decoder) {
		t.Helper()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = conn.Write(flood) // fails once the server hangs up
		}()
		var rep Reply
		if err := replies.Decode(&rep); err != nil {
			t.Fatalf("no reply to an endless line: %v", err)
		}
		if rep.Event != EventError || !strings.Contains(rep.Reason, "too long") {
			t.Fatalf("endless line answered with %+v, want a too-long error", rep)
		}
		conn.Close()
		<-wrote
	}

	cs, err := Dial(addr, SessionOptions{ID: "flood"})
	if err != nil {
		t.Fatal(err)
	}
	refused(cs.conn, cs.dec)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	refused(conn, json.NewDecoder(conn))

	if got := srv.Served(); got != 0 {
		t.Errorf("Served() = %d after refused sessions, want 0", got)
	}
	// MaxSessions is 1: this only decodes if the refused session
	// released its slot.
	frames, want := f.reference(f.utts[0])
	rep, _, err := decodeRemote(addr, frames, SessionOptions{ID: "after"})
	if err != nil {
		t.Fatalf("session after the refused ones: %v", err)
	}
	if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("session after the refused ones: (%v, %v) != local (%v, %v)", rep.OK, rep.Cost, want.OK, want.Cost)
	}
}

// TestReadLine pins the bounded line reader on a read buffer far
// smaller than the lines: long lines are gathered whole, blank lines
// are skipped, a last line cut short by EOF still counts, and a line
// over the limit — with or without a newline — is refused.
func TestReadLine(t *testing.T) {
	reader := func(in string) *session {
		return &session{
			srv:  &Server{cfg: Config{IdleTimeout: time.Minute}},
			conn: &replayConn{},
			br:   bufio.NewReaderSize(strings.NewReader(in), 16),
		}
	}
	long := strings.Repeat("x", 100)
	c := reader("short\n" + long + "\n \t\r\n\nlast")
	var buf []byte
	for _, want := range []string{"short", long, "last"} {
		line, err := c.readLine(len(long), &buf)
		if err != nil || string(line) != want {
			t.Fatalf("readLine = %q, %v; want %q", line, err, want)
		}
	}
	if line, err := c.readLine(len(long), &buf); err != io.EOF {
		t.Fatalf("after the last line: %q, %v; want EOF", line, err)
	}
	for _, in := range []string{long + "\n", long} {
		if line, err := reader(in).readLine(len(long)-1, &buf); !errors.Is(err, errLineTooLong) {
			t.Errorf("%d-byte line over a %d-byte limit: %q, %v; want errLineTooLong", len(long), len(long)-1, line, err)
		}
	}
}
