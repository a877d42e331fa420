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

// FuzzFrameCodec pins the frame codec against encoding/json, reading
// each input two ways:
//
//   - as float64 bits: for a finite vector, appendBits returns exactly
//     those bits, appendFrame's line equals
//     json.Marshal(Request{Op: OpFrame, F64: bits}) plus a newline, and
//     the line parses back to the same floats bit for bit; a NaN or
//     ±Inf makes appendBits fail with nothing appended, and the
//     server's appendFeatures refuses the raw bits;
//   - as a line: whatever parseFrame accepts, json.Unmarshal also
//     accepts, into a Request holding the same bits and nothing else.
//
// Both codec bodies run every input, and the client's frameBits, which
// aliases the features on the AVX2 body, must agree with appendBits
// on the bits and on the error.
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
	canonical := string(appendFrame(nil, floatBytes(0.25, -1.5)))
	canonical = canonical[:len(canonical)-1]
	for _, line := range []string{
		canonical,
		`{"op":"frame","f64":"AAAAAAAA0D8="}`,
		`{"op":"frame","f64":"AAAAAAAA0D8"}`,
		`{"op":"frame","f64":"AAAAAAAA0D8=="}`,
		`{"op":"frame","f64":"AAAAAAAA\r0D8="}`,
		"{\"op\":\"frame\",\"f64\":\"AAAAAAAA\r0D8=\"}",
		"{\"op\":\"frame\",\"f64\":\"AAAAAAAA0D8=\r\"}",
		"{\"op\":\"frame\",\"f64\":\"\n\"}",
		"{\"op\":\"frame\",\"f64\":\"000\n0\"}",
		`{"op":"frame","f64":"AAAAAAAA\/0D8="}`,
		`{"op":"frame","f64":"AAAAAAAA\u00410D8="}`,
		`{"op":"frame","f64":"AAAA"AAAA0D8="}`,
		`{"op":"frame","f64":"!!!!"}`,
		`{"op":"frame","f64":""}`,
		`{"op":"frame","f64":"AAAAAAAA0D8="}}`,
		`{"op":"frame","f64":"AAAAAAAA0D8="} `,
		`{"op":"frame","f64":"AAAAAAAA0D9="}`,
		`{"op":"frame","f64":"AAAAAAAA-D8="}`,
		`{"op":"frame","f64":"AAAAAAAA_D8="}`,
		`{"op":"frame","f64":"AAAA","f64":"AAAAAAAA0D8="}`,
		`{"op":"frame","f64":null}`,
		`{"op":"frame","f64":"AAAAAAAA0D8=","data":[1]}`,
		`{"op":"frame", "f64":"AAAAAAAA0D8="}`,
		`{"f64":"AAAAAAAA0D8=","op":"frame"}`,
		`{"op":"frame","data":[1,2.5,-0,1e-7]}`,
		`{"op":"frame"}`,
		`{"op":"finish"}`,
	} {
		f.Add([]byte(line))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		codecBodies(func(body string) { checkFrameCodec(t, body, in) })
	})
}

// checkFrameCodec is FuzzFrameCodec's check of one input on the codec
// body named body.
func checkFrameCodec(t *testing.T, body string, in []byte) {
	// The input as a line.
	if bits, ok := parseFrame(in, nil); ok {
		var req Request
		if err := json.Unmarshal(in, &req); err != nil {
			t.Fatalf("%s: fast path accepted %q, encoding/json refuses it: %v", body, in, err)
		}
		if !bytes.Equal(req.F64, bits) {
			t.Fatalf("%s: %q: fast path %x, encoding/json %x", body, in, bits, req.F64)
		}
		req.F64 = nil
		if fmt.Sprintf("%+v", req) != fmt.Sprintf("%+v", Request{Op: OpFrame}) {
			t.Fatalf("%s: %q: encoding/json decoded %+v beside the bits", body, in, req)
		}
	}

	// The input as float64 bits.
	raw := in[:len(in)/8*8]
	x := make([]float64, len(raw)/8)
	finite := true
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		finite = finite && !math.IsNaN(x[i]) && !math.IsInf(x[i], 0)
	}
	prefix := []byte("prefix")
	got, err := appendBits(prefix, x)
	var buf []byte
	if fb, ferr := frameBits(&buf, x); fmt.Sprint(ferr) != fmt.Sprint(err) || (err == nil && !bytes.Equal(fb, raw)) {
		t.Fatalf("%s: %v: frameBits %x, %v; appendBits %v", body, x, fb, ferr, err)
	}
	if !finite {
		if err == nil || len(got) != len(prefix) {
			t.Fatalf("%s: non-finite %v: appendBits err %v, wrote %x", body, x, err, got[len(prefix):])
		}
		if _, err := appendFeatures(nil, raw); err == nil {
			t.Fatalf("%s: non-finite %v: appendFeatures accepts the bits", body, x)
		}
		return
	}
	if err != nil || !bytes.Equal(got[len(prefix):], raw) {
		t.Fatalf("%s: %v: appendBits %x, %v; want %x", body, x, got[len(prefix):], err, raw)
	}
	line := appendFrame(prefix, raw)[len(prefix):]
	want, err := json.Marshal(Request{Op: OpFrame, F64: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, append(want, '\n')) {
		t.Fatalf("%s: %v:\nappendFrame %q\njson        %q", body, x, line, want)
	}
	if len(x) > 0 {
		back, ok := parseFrame(line[:len(line)-1], nil)
		if !ok || !bytes.Equal(back, raw) {
			t.Fatalf("%s: %v: encoded line does not parse back (ok %v, got %x)", body, x, ok, back)
		}
		feats, err := appendFeatures(nil, back)
		if err != nil || !sameFloats(feats, x) {
			t.Fatalf("%s: %v: bits unpack to %v, %v", body, x, feats, err)
		}
	}
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
// PushFrame, read by the server through its deadline reader and
// pooled read buffer and parsed, scored on the session's Exec and
// pushed into its decode session — allocates nothing, on both codec
// bodies.
func TestFramePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds checked without -race")
	}
	f := newFixture(t)
	srv, err := New(Config{Registry: f.registry(t), Decoder: f.dec, Decode: decoder.Config{Beam: 15, AcousticScale: 1}})
	if err != nil {
		t.Fatal(err)
	}
	frames := speech.SpliceAll(f.utts[0].Frames, f.topo.Context)
	var stream []byte
	for _, fr := range frames {
		bits, err := appendBits(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		stream = appendFrame(stream, bits)
	}
	v, _ := srv.Registry().Resolve("")
	conn := &replayConn{stream: stream}
	buf := takeConnBuf(conn, time.Minute)
	defer buf.put()
	c := &session{srv: srv, conn: conn, in: &buf.in, br: buf.br, variant: v}
	c.in.deadline = time.Now().Add(time.Hour)
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
	codecBodies(func(body string) {
		utterance()
		utterance()
		if allocs := testing.AllocsPerRun(5, utterance); allocs != 0 {
			t.Errorf("%s: warm frame path allocates %.1f times per %d-frame utterance, want 0", body, allocs, len(frames))
		}
	})
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
	refused := func(conn net.Conn, next func() (Reply, error)) {
		t.Helper()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = conn.Write(flood) // fails once the server hangs up
		}()
		rep, err := next()
		if err != nil {
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
	refused(cs.conn, cs.readReply)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw := json.NewDecoder(conn)
	refused(conn, func() (rep Reply, err error) { return rep, raw.Decode(&rep) })

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
			in:   &deadlineReader{},
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
		if line, err := reader(in).readLine(len(long)-1, &buf); !errors.Is(err, ErrLineTooLong) {
			t.Errorf("%d-byte line over a %d-byte limit: %q, %v; want ErrLineTooLong", len(long), len(long)-1, line, err)
		}
	}
}

// TestFrameBitsRefused pins the server's checks on frames sent as
// bits: non-finite values, a payload one byte short, invalid base64
// and a frame carrying both encodings each end the session in exactly
// one error reply, the session does not count as served, and its
// admission slot is free again.
func TestFrameBitsRefused(t *testing.T) {
	f := newFixture(t)
	srv, addr, stop := f.start(t, func(c *Config) { c.MaxSessions = 1 })
	defer stop()

	frames, want := f.reference(f.utts[0])
	good := frames[0]
	withValue := func(v float64) string {
		fr := append([]float64(nil), good...)
		fr[len(fr)/2] = v
		return string(appendFrame(nil, floatBytes(fr...)))
	}
	both, err := json.Marshal(Request{Op: OpFrame, Data: good, F64: floatBytes(good...)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, line, reason string }{
		{"NaN", withValue(math.NaN()), "not a finite feature"},
		{"+Inf", withValue(math.Inf(1)), "not a finite feature"},
		{"-Inf", withValue(math.Inf(-1)), "not a finite feature"},
		{"short", string(appendFrame(nil, floatBytes(good...)[:8*len(good)-1])), "bytes of f64 bits"},
		{"base64", `{"op":"frame","f64":"!!!!"}` + "\n", "illegal base64"},
		{"both", string(both) + "\n", "both data and f64"},
	} {
		cs, err := Dial(addr, SessionOptions{ID: tc.name})
		if err != nil {
			t.Fatalf("%s: slot not free: %v", tc.name, err)
		}
		if err := cs.PushFrame(good); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.conn.Write([]byte(tc.line)); err != nil {
			t.Fatal(err)
		}
		rep, err := cs.readReply()
		if err != nil || rep.Event != EventError || !strings.Contains(rep.Reason, tc.reason) {
			t.Fatalf("%s: answered with %+v, %v; want an error naming %q", tc.name, rep, err, tc.reason)
		}
		if rep, err := cs.readReply(); err != io.EOF {
			t.Fatalf("%s: after the error reply: %+v, %v; want EOF", tc.name, rep, err)
		}
		cs.Close()
		if got := srv.Served(); got != 0 {
			t.Fatalf("%s: Served() = %d after a refused frame, want 0", tc.name, got)
		}
	}

	rep, _, err := decodeRemote(addr, frames, SessionOptions{ID: "after"})
	if err != nil {
		t.Fatalf("session after the refused ones: %v", err)
	}
	if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("session after the refused ones: (%v, %v) != local (%v, %v)", rep.OK, rep.Cost, want.OK, want.Cost)
	}
}

// TestTextFramesMatchBits pins the debug path: a raw-socket session
// sending the documented {"op":"frame","data":[…]} lines gets a result
// line byte-identical to the one a ClientSession, which sends bits,
// gets for the same utterance.
func TestTextFramesMatchBits(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()

	for i, u := range f.utts[:4] {
		frames, want := f.reference(u)
		rep, _, err := decodeRemote(addr, frames, SessionOptions{ID: "bits"})
		if err != nil {
			t.Fatal(err)
		}
		bitsLine, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}

		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(conn)
		if err := enc.Encode(Request{Op: OpStart, ID: "text"}); err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			if err := enc.Encode(Request{Op: OpFrame, Data: fr}); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Encode(Request{Op: OpFinish}); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		ready, err := br.ReadString('\n')
		if err != nil || !strings.Contains(ready, `"event":"ready"`) {
			t.Fatalf("utt %d: text session not admitted: %q, %v", i, ready, err)
		}
		textLine, err := br.ReadBytes('\n')
		conn.Close()
		if err != nil {
			t.Fatalf("utt %d: text session: %v", i, err)
		}
		if !bytes.Equal(bytes.TrimSuffix(textLine, []byte("\n")), bitsLine) {
			t.Fatalf("utt %d: text frames gave\n%s\nbits gave\n%s", i, textLine, bitsLine)
		}
		if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("utt %d: served (%v, %v) != local (%v, %v)", i, rep.OK, rep.Cost, want.OK, want.Cost)
		}
	}
}

// TestClientReplyCapped pins the client's bounded reply reader: a
// server that sends 8 MiB with no newline — as the admission reply or
// after it — makes Dial or Finish fail with ErrLineTooLong once
// MaxReplyLine bytes are read, instead of buffering the flood.
func TestClientReplyCapped(t *testing.T) {
	flood := bytes.Repeat([]byte("7"), 8<<20)
	for _, admit := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
				return
			}
			if admit {
				_, _ = conn.Write([]byte(`{"event":"ready"}` + "\n"))
			}
			_, _ = conn.Write(flood) // fails once the client hangs up
		}()

		cs, err := Dial(ln.Addr().String(), SessionOptions{})
		if admit {
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			_, _, err = cs.Finish()
			cs.Close()
		}
		if !errors.Is(err, ErrLineTooLong) {
			t.Errorf("admit %v: flood answered with %v, want ErrLineTooLong", admit, err)
		}
		<-served
		ln.Close()
	}
}
