package serve

import "unsafe"

// encodeAVX2 is the frame encoder's AVX2 body (frame_amd64.s): it
// encodes src[:k] as standard base64 into dst[:k/3*4] without padding,
// where k is len(src) rounded down to a multiple of 24, and returns k.
//
//go:noescape
func encodeAVX2(dst, src []byte) int

// decodeAVX2 is the frame decoder's AVX2 body: it decodes src[:k] into
// dst[:k/4*3] and returns k, where k is a multiple of 32 and src[k:]
// is shorter than 32 characters or begins a 32-character block holding
// a byte outside the standard alphabet — padding included.
//
//go:noescape
func decodeAVX2(dst, src []byte) int

// finiteAVX2 reports whether no value of x has all exponent bits set,
// i.e. none is NaN or ±Inf.
//
//go:noescape
func finiteAVX2(x []float64) bool

// f64Bytes is x's backing array as bytes: on amd64, little-endian,
// exactly the bytes binary.LittleEndian.AppendUint64 writes for each
// value's bits.
func f64Bytes(x []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 8*len(x))
}
