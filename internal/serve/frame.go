package serve

import (
	"fmt"
	"math"
	"strconv"
)

// The frame codec. Frames are the one message sent once per 10 ms of
// audio, so both ends encode and parse them by hand instead of through
// encoding/json's reflection. The bytes are exactly what encoding/json
// writes for Request{Op: OpFrame, Data: x}: the wire stays one NDJSON
// protocol for the router, non-Go clients and docs/SERVING.md, and
// FuzzFrameCodec pins both directions against encoding/json.

const (
	framePrefix = `{"op":"frame","data":[`
	frameSuffix = `]}`
)

// appendFrame appends the line encoding/json encodes for
// Request{Op: OpFrame, Data: frame}, newline included. Like
// json.Marshal it refuses NaN and ±Inf, and then appends nothing.
func appendFrame(b []byte, frame []float64) ([]byte, error) {
	if len(frame) == 0 {
		return append(b, `{"op":"frame"}`+"\n"...), nil // data is omitempty
	}
	for i, f := range frame {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("serve: frame value %d is %v, which JSON cannot encode", i, f)
		}
	}
	b = append(b, framePrefix...)
	for i, f := range frame {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return append(b, frameSuffix+"\n"...), nil
}

// appendFloat formats f by encoding/json's float64 rules: the shortest
// representation that round-trips, in 'f' notation unless the
// magnitude is below 1e-6 or at least 1e21, with a negative exponent's
// leading zero dropped (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// parseFrame parses a line (newline stripped) of exactly the shape
// appendFrame writes into dst[:0], and reports whether it did. Every
// number must match JSON's number grammar and parse to a float64 in
// range. Any other line — another op, other or reordered keys,
// whitespace, an empty array, a malformed or overflowing number —
// reports false, and the caller hands it to encoding/json, which
// decides about it as it does about every other message.
func parseFrame(line []byte, dst []float64) ([]float64, bool) {
	if len(line) < len(framePrefix)+len(frameSuffix) ||
		string(line[:len(framePrefix)]) != framePrefix ||
		string(line[len(line)-len(frameSuffix):]) != frameSuffix {
		return dst, false
	}
	rest := line[len(framePrefix) : len(line)-len(frameSuffix)]
	dst = dst[:0]
	for {
		n := numberLen(rest)
		if n == 0 {
			return dst, false
		}
		f, err := strconv.ParseFloat(string(rest[:n]), 64)
		if err != nil {
			return dst, false
		}
		dst = append(dst, f)
		if n == len(rest) {
			return dst, true
		}
		if rest[n] != ',' {
			return dst, false
		}
		rest = rest[n+1:]
	}
}

// numberLen returns the length of the JSON number at the start of b —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or 0 if there is
// none. strconv.ParseFloat alone would also take hex floats, "NaN",
// "Inf", "+1" and ".5", none of which are JSON.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return 0
		}
		i = k
	}
	return i
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
