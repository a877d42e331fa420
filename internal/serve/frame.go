package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
)

// The frame codec. Frames are the one message sent once per 10 ms of
// audio, so they carry their features as raw little-endian IEEE-754
// bytes in Request.F64, and no float is formatted or parsed on either
// end. encoding/json writes a []byte field as standard base64, so the
// line appendFrame writes is byte for byte what json.Marshal writes
// for Request{Op: OpFrame, F64: bits}: the wire stays one NDJSON
// protocol for the router and docs/SERVING.md, and FuzzFrameCodec pins
// both directions against encoding/json.

const (
	framePrefix = `{"op":"frame","f64":"`
	frameSuffix = `"}`
)

// appendBits appends frame's features as little-endian float64 bits.
// NaN and ±Inf are refused, and then nothing is appended: the server
// refuses them too, so sending one could only end the session.
func appendBits(b []byte, frame []float64) ([]byte, error) {
	for i, f := range frame {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("serve: frame value %d is %v, not a finite feature", i, f)
		}
	}
	for _, f := range frame {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b, nil
}

// appendFrame appends the line encoding/json encodes for
// Request{Op: OpFrame, F64: bits}, newline included.
func appendFrame(b, bits []byte) []byte {
	if len(bits) == 0 {
		return append(b, `{"op":"frame"}`+"\n"...) // f64 is omitempty
	}
	b = append(b, framePrefix...)
	b = base64.StdEncoding.AppendEncode(b, bits)
	return append(b, frameSuffix+"\n"...)
}

// parseFrame decodes a line (newline stripped) of exactly the shape
// appendFrame writes, appending its bytes to dst[:0], and reports
// whether it did. Any other line — another op, other or reordered
// keys, whitespace, escapes, invalid base64 — reports false, and the
// caller hands it to encoding/json, which decides about it as it does
// about every other message. A '\r' is refused here although the
// base64 decoder would skip it: JSON forbids it inside a string.
func parseFrame(line, dst []byte) ([]byte, bool) {
	if len(line) < len(framePrefix)+len(frameSuffix) ||
		string(line[:len(framePrefix)]) != framePrefix ||
		string(line[len(line)-len(frameSuffix):]) != frameSuffix {
		return dst, false
	}
	payload := line[len(framePrefix) : len(line)-len(frameSuffix)]
	if bytes.IndexByte(payload, '\r') >= 0 {
		return dst, false
	}
	bits, err := base64.StdEncoding.AppendDecode(dst[:0], payload)
	if err != nil {
		return dst, false
	}
	return bits, true
}

// appendFeatures appends the float64s whose little-endian bits are
// bits (len a multiple of 8) to dst. A NaN or ±Inf is an error: the
// text encoding cannot carry one, and neither may the bits.
func appendFeatures(dst []float64, bits []byte) ([]float64, error) {
	for i := 0; i+8 <= len(bits); i += 8 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(bits[i:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("frame value %d is %v, not a finite feature", i/8, f)
		}
		dst = append(dst, f)
	}
	return dst, nil
}
