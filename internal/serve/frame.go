package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/mat"
)

// The frame codec. Frames are the one message sent once per 10 ms of
// audio, so they carry their features as raw little-endian IEEE-754
// bytes in Request.F64, and no float is formatted or parsed on either
// end. encoding/json writes a []byte field as standard base64, so the
// line appendFrame writes is byte for byte what json.Marshal writes
// for Request{Op: OpFrame, F64: bits}: the wire stays one NDJSON
// protocol for the router and docs/SERVING.md, and FuzzFrameCodec pins
// both directions against encoding/json.
//
// Where the CPU has AVX2 the base64 runs on the vector unit
// (frame_amd64.s), and the client encodes straight from the features'
// own bytes and the server decodes straight into its features buffer,
// each with one finiteness pass. The bytes on the wire and every
// accept or refuse are the same as the stdlib codec's; FuzzBase64 runs
// both bodies against it.

const (
	framePrefix = `{"op":"frame","f64":"`
	frameSuffix = `"}`
)

// useAVX2 selects the AVX2 frame codec and the aliased feature bytes
// (mat.HasAVX2); tests clear it to run the portable body, which is the
// stdlib codec and appendBits/appendFeatures' copying loops.
var useAVX2 = mat.HasAVX2()

// frameBits returns frame's features as little-endian float64 bits:
// frame's own bytes where useAVX2 holds, else copied into *buf, which
// keeps the copy for reuse. NaN and ±Inf are refused, as appendBits
// refuses them, naming the first.
func frameBits(buf *[]byte, frame []float64) ([]byte, error) {
	if useAVX2 && finiteAVX2(frame) {
		return f64Bytes(frame), nil
	}
	b, err := appendBits((*buf)[:0], frame)
	*buf = b
	return b, err
}

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
	b = appendEncode(b, bits)
	return append(b, frameSuffix+"\n"...)
}

// appendEncode is base64.StdEncoding.AppendEncode, on the vector unit
// where useAVX2 holds: the AVX2 body encodes whole 24-byte blocks, and
// the stdlib the rest, padding included.
func appendEncode(dst, src []byte) []byte {
	if !useAVX2 {
		return base64.StdEncoding.AppendEncode(dst, src)
	}
	n := base64.StdEncoding.EncodedLen(len(src))
	dst = slices.Grow(dst, n)
	out := dst[len(dst):][:n]
	k := encodeAVX2(out, src)
	base64.StdEncoding.Encode(out[k/3*4:], src[k:])
	return dst[:len(dst)+n]
}

// appendDecode is base64.StdEncoding.AppendDecode, on the vector unit
// where useAVX2 holds: the AVX2 body decodes whole 32-character blocks
// up to the first that holds a byte outside the alphabet, and the
// stdlib the rest, so padding, '\r', '\n' and every invalid byte are
// judged by the stdlib exactly as before. The two parts meet on a
// 4-character boundary, where the stdlib's own decode would be.
func appendDecode(dst, src []byte) ([]byte, error) {
	if !useAVX2 {
		return base64.StdEncoding.AppendDecode(dst, src)
	}
	n := base64.StdEncoding.DecodedLen(len(src))
	dst = slices.Grow(dst, n)
	out := dst[len(dst):][:n]
	k := decodeAVX2(out, src)
	m, err := base64.StdEncoding.Decode(out[k/4*3:], src[k:])
	return dst[:len(dst)+k/4*3+m], err
}

// canonicalFrameLine is the length of the line appendFrame writes for
// inDim features, newline stripped.
func canonicalFrameLine(inDim int) int {
	return len(framePrefix) + base64.StdEncoding.EncodedLen(8*inDim) + len(frameSuffix)
}

// parseFrame decodes a line (newline stripped) of exactly the shape
// appendFrame writes, appending its bytes to dst[:0], and reports
// whether it did. Any other line — another op, other or reordered
// keys, whitespace, escapes, invalid base64 — reports false, and the
// caller hands it to encoding/json, which decides about it as it does
// about every other message. A '\r' or '\n' is refused here although
// the base64 decoder would skip it: JSON forbids either inside a
// string.
func parseFrame(line, dst []byte) ([]byte, bool) {
	if len(line) < len(framePrefix)+len(frameSuffix) ||
		string(line[:len(framePrefix)]) != framePrefix ||
		string(line[len(line)-len(frameSuffix):]) != frameSuffix {
		return dst, false
	}
	payload := line[len(framePrefix) : len(line)-len(frameSuffix)]
	if bytes.IndexByte(payload, '\r') >= 0 || bytes.IndexByte(payload, '\n') >= 0 {
		return dst, false
	}
	bits, err := appendDecode(dst[:0], payload)
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
