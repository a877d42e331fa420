package serve

import (
	"bytes"
	"encoding/base64"
	"math"
	"testing"
)

// codecBodies runs f once per frame codec body this machine can
// execute, switching between them through useAVX2: the portable body
// (the stdlib codec and the copying loops) always, the AVX2 body where
// the CPU has it.
func codecBodies(f func(name string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	f("portable")
	if saved {
		useAVX2 = true
		f("avx2")
	}
}

// FuzzBase64 runs both bodies of appendEncode and appendDecode against
// encoding/base64. Encode: any input of up to 2048 bytes gives the
// stdlib's characters. Decode: the input's own encoding, that encoding
// with one byte replaced and with one byte inserted — a byte outside
// the alphabet (≥ 0x80, '=', '\r', '\n', '\\', '"') or the fuzzer's
// own — and the raw input read as a payload each give the stdlib's
// accept or refuse and, when accepted, its bytes.
func FuzzBase64(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte("any carnal pleasure."), uint16(3), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 200), uint16(639), uint8(2))
	f.Add(bytes.Repeat([]byte{0x3e, 0xff}, 160), uint16(32), uint8(3))
	f.Add(bytes.Repeat([]byte("AAAA"), 160), uint16(100), uint8(4))
	f.Add([]byte("QUJD"+"=="+"QUJD"), uint16(0), uint8(5))
	f.Add(bytes.Repeat([]byte("+/09azAZ"), 12), uint16(31), uint8(6))
	f.Add(bytes.Repeat([]byte{0x80}, 64), uint16(64), uint8(7))
	bad := []byte{0x80, 0xff, '=', '\r', '\n', '\\', '"'}

	f.Fuzz(func(t *testing.T, in []byte, at uint16, pick uint8) {
		if len(in) > 2048 {
			in = in[:2048]
		}
		prefix := []byte("prefix")
		enc := base64.StdEncoding.AppendEncode(nil, in)
		payloads := [][]byte{enc, in}
		if len(enc) > 0 {
			b := pick
			if int(pick) < 8*len(bad) {
				b = bad[int(pick)%len(bad)]
			}
			i := int(at) % len(enc)
			replaced := bytes.Clone(enc)
			replaced[i] = b
			inserted := append(append(bytes.Clone(enc[:i]), b), enc[i:]...)
			payloads = append(payloads, replaced, inserted)
		}
		codecBodies(func(body string) {
			got := appendEncode(bytes.Clone(prefix), in)
			if want := append(bytes.Clone(prefix), enc...); !bytes.Equal(got, want) {
				t.Fatalf("%s: encode %x:\ngot  %q\nwant %q", body, in, got, want)
			}
			for _, p := range payloads {
				got, gerr := appendDecode(bytes.Clone(prefix), p)
				want, werr := base64.StdEncoding.AppendDecode(bytes.Clone(prefix), p)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: decode %q: err %v, stdlib %v", body, p, gerr, werr)
				}
				if gerr == nil && !bytes.Equal(got, want) {
					t.Fatalf("%s: decode %q:\ngot  %x\nwant %x", body, p, got, want)
				}
			}
		})
	})
}

// TestAVX2CodecSpans pins how much of a payload the AVX2 bodies take
// before handing over to the stdlib: every whole 24-byte block to
// encode, and to decode every whole 32-character block before the
// first that holds a byte outside the alphabet. FuzzBase64 cannot see
// this: a body that handed everything over would still agree with the
// stdlib. It also pins finiteAVX2 on every length up to 13 with each
// non-finite value, the largest finite one and a NaN payload, at every
// position, in the vector steps and in the tail.
func TestAVX2CodecSpans(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	src := make([]byte, 500)
	for i := range src {
		src[i] = byte(i * 7)
	}
	enc := base64.StdEncoding.EncodeToString(src)
	out := make([]byte, len(enc))
	if k := encodeAVX2(out, src); k != 480 || string(out[:640]) != enc[:640] {
		t.Fatalf("encodeAVX2 took %d bytes, want 480, and wrote %q", k, out[:k/3*4])
	}
	dst := make([]byte, len(src))
	if k := decodeAVX2(dst, []byte(enc)); k != len(enc)/32*32 || !bytes.Equal(dst[:k/4*3], src[:k/4*3]) {
		t.Fatalf("decodeAVX2 took %d characters of %d, want %d", k, len(enc), len(enc)/32*32)
	}
	for n := 0; n <= 13; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = -math.MaxFloat64 * float64(i%2)
		}
		if !finiteAVX2(x) {
			t.Fatalf("finiteAVX2 refuses %v", x)
		}
		for i := range x {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff0000000000001)} {
				saved := x[i]
				x[i] = v
				if finiteAVX2(x) {
					t.Fatalf("finiteAVX2 accepts %v at %d of %d", v, i, n)
				}
				x[i] = saved
			}
		}
	}
	for _, b := range []byte{0x80, 0xff, '=', '\r', '\n', '\\', '"', '-', '_', ':', '@', '[', '`', '{', 0} {
		for _, at := range []int{0, 31, 32, 100, 639} {
			bad := []byte(enc)
			bad[at] = b
			if k := decodeAVX2(dst, bad); k != at/32*32 {
				t.Errorf("%q at %d: decodeAVX2 took %d characters, want %d", b, at, k, at/32*32)
			}
		}
	}
}

// BenchmarkFrameCodec times one 60-feature frame (the served width)
// through each codec body: encode is the client's frameBits and
// appendFrame, decode the server's parse of that line into its
// features buffer.
func BenchmarkFrameCodec(b *testing.B) {
	const inDim = 60
	frame := make([]float64, inDim)
	for i := range frame {
		frame[i] = float64(i)*0.37 - 9.5
	}
	c := &session{p: &pooled{data: make([]float64, 0, inDim+1)}, inDim: inDim}
	codecBodies(func(body string) {
		var bits, line []byte
		b.Run(body+"/encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fb, err := frameBits(&bits, frame)
				if err != nil {
					b.Fatal(err)
				}
				line = appendFrame(line[:0], fb)
			}
		})
		line = bytes.TrimSuffix(line, []byte("\n"))
		b.Run(body+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.request(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
