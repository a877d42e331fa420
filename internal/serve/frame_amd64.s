#include "textflag.h"

// The AVX2 base64 bodies of the frame codec: Muła's reshuffle and
// translate to encode, Muła and Lemire's nibble-LUT validation and
// roll to decode. Both use the standard alphabet and no padding; the
// callers (frame_amd64.go) hand what is left to encoding/base64.

// Encode's reshuffle: per 3-byte group s0 s1 s2 the dword s1 s0 s2 s1.
// Lane 0 holds src[0:16] and uses its bytes 0–11; lane 1 holds
// src[8:24] and uses its bytes 4–15.
DATA encShuf<>+0(SB)/8, $0x0405030401020001
DATA encShuf<>+8(SB)/8, $0x0a0b090a07080607
DATA encShuf<>+16(SB)/8, $0x0809070805060405
DATA encShuf<>+24(SB)/8, $0x0e0f0d0e0b0c0a0b
GLOBL encShuf<>(SB), RODATA|NOPTR, $32

// Encode's translate offsets, indexed by range: +65 for 0–25 ('A'),
// +71 for 26–51 ('a'), -4 for 52–61 ('0'), -19 for 62 ('+') and -16
// for 63 ('/').
DATA encLUT<>+0(SB)/8, $0xfcfcfcfcfcfc4741
DATA encLUT<>+8(SB)/8, $0x0000f0edfcfcfcfc
GLOBL encLUT<>(SB), RODATA|NOPTR, $16

// Encode's dword constants: the two masks and two multipliers that
// move each 6-bit field to its own byte, then the saturating-subtract
// bias (51) and the compare bound (25) that pick a LUT range.
DATA encConst<>+0(SB)/4, $0x0fc0fc00
DATA encConst<>+4(SB)/4, $0x04000040
DATA encConst<>+8(SB)/4, $0x003f03f0
DATA encConst<>+12(SB)/4, $0x01000010
DATA encConst<>+16(SB)/4, $0x33333333
DATA encConst<>+20(SB)/4, $0x19191919
GLOBL encConst<>(SB), RODATA|NOPTR, $24

// func encodeAVX2(dst, src []byte) int
//
// Per step, 24 bytes of src become 32 characters of dst. It returns
// the bytes encoded, len(src) rounded down to a multiple of 24; dst
// must hold 4/3 of that.
TEXT ·encodeAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ SI, R8
	CMPQ CX, $24
	JB   encDone

	VMOVDQU        encShuf<>(SB), Y6
	VPBROADCASTD   encConst<>+0(SB), Y7
	VPBROADCASTD   encConst<>+4(SB), Y8
	VPBROADCASTD   encConst<>+8(SB), Y9
	VPBROADCASTD   encConst<>+12(SB), Y10
	VPBROADCASTD   encConst<>+16(SB), Y11
	VPBROADCASTD   encConst<>+20(SB), Y12
	VBROADCASTI128 encLUT<>(SB), Y13

encLoop:
	VMOVDQU     (SI), X0
	VINSERTI128 $1, 8(SI), Y0, Y0
	VPSHUFB     Y6, Y0, Y0

	// The four 6-bit fields of each dword, one per byte, in output
	// order: c0 and c2 by a high multiply, c1 and c3 by a low one.
	VPAND    Y7, Y0, Y1
	VPMULHUW Y8, Y1, Y1
	VPAND    Y9, Y0, Y2
	VPMULLW  Y10, Y2, Y2
	VPOR     Y1, Y2, Y0

	// Range index: 0 for 0–25, 1 for 26–51, 2–11 for 52–61, 12 and 13
	// for 62 and 63; then add that range's offset.
	VPSUBUSB Y11, Y0, Y1
	VPCMPGTB Y12, Y0, Y2
	VPSUBB   Y2, Y1, Y1
	VPSHUFB  Y1, Y13, Y1
	VPADDB   Y1, Y0, Y0
	VMOVDQU  Y0, (DI)

	ADDQ $24, SI
	ADDQ $32, DI
	SUBQ $24, CX
	CMPQ CX, $24
	JAE  encLoop
	VZEROUPPER

encDone:
	SUBQ R8, SI
	MOVQ SI, ret+48(FP)
	RET

// Decode's validation LUTs: a character is in the alphabet exactly
// when the bits its low nibble selects and the bits its high nibble
// selects share none. Every high nibble outside 2–7 selects 0x10,
// which every low nibble's entry holds.
DATA decLo<>+0(SB)/8, $0x1111111111111115
DATA decLo<>+8(SB)/8, $0x1a1b1b1b1a131111
GLOBL decLo<>(SB), RODATA|NOPTR, $16

DATA decHi<>+0(SB)/8, $0x0804080402011010
DATA decHi<>+8(SB)/8, $0x1010101010101010
GLOBL decHi<>(SB), RODATA|NOPTR, $16

// Decode's roll: the offset that maps each high nibble's characters to
// their 6-bit values, +19 for '+', +4 for digits, -65 for 'A'–'Z',
// -71 for 'a'–'z', and at index 1 the +16 for '/', whose high nibble
// 2 is rolled back by one.
DATA decRoll<>+0(SB)/8, $0xb9b9bfbf04131000
DATA decRoll<>+8(SB)/8, $0x0000000000000000
GLOBL decRoll<>(SB), RODATA|NOPTR, $16

// Decode's pack: the 3 bytes of each dword, high first, then the six
// dwords of bytes out of both lanes.
DATA decPack<>+0(SB)/8, $0x090a040506000102
DATA decPack<>+8(SB)/8, $0xffffffff0c0d0e08
GLOBL decPack<>(SB), RODATA|NOPTR, $16

DATA decPerm<>+0(SB)/8, $0x0000000100000000
DATA decPerm<>+8(SB)/8, $0x0000000400000002
DATA decPerm<>+16(SB)/8, $0x0000000600000005
DATA decPerm<>+24(SB)/8, $0x0000000700000007
GLOBL decPerm<>(SB), RODATA|NOPTR, $32

// Decode's dword constants: 0x2f, both the nibble mask and '/', then
// the VPMADDUBSW and VPMADDWD multipliers that merge four 6-bit fields
// into 24 bits.
DATA decConst<>+0(SB)/4, $0x2f2f2f2f
DATA decConst<>+4(SB)/4, $0x01400140
DATA decConst<>+8(SB)/4, $0x00011000
GLOBL decConst<>(SB), RODATA|NOPTR, $12

// func decodeAVX2(dst, src []byte) int
//
// Per step, 32 characters of src become 24 bytes of dst. It stops
// before the first 32-character block holding a byte outside the
// alphabet, or fewer than 32 characters, and returns the characters
// decoded, a multiple of 32; dst must hold 3/4 of that.
TEXT ·decodeAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ SI, R8
	CMPQ CX, $32
	JB   decDone

	VPBROADCASTD   decConst<>+0(SB), Y6
	VPBROADCASTD   decConst<>+4(SB), Y7
	VPBROADCASTD   decConst<>+8(SB), Y8
	VBROADCASTI128 decLo<>(SB), Y9
	VBROADCASTI128 decHi<>(SB), Y10
	VBROADCASTI128 decRoll<>(SB), Y11
	VBROADCASTI128 decPack<>(SB), Y12
	VMOVDQU        decPerm<>(SB), Y13

decLoop:
	VMOVDQU (SI), Y0

	// Validate: the masks keep bit 7 clear, so VPSHUFB indexes by the
	// low nibble of each.
	VPSRLD  $4, Y0, Y1
	VPAND   Y6, Y1, Y1
	VPAND   Y6, Y0, Y2
	VPSHUFB Y1, Y10, Y3
	VPSHUFB Y2, Y9, Y4
	VPTEST  Y3, Y4
	JNZ     decInvalid

	// Translate to 6-bit values.
	VPCMPEQB Y6, Y0, Y5
	VPADDB   Y5, Y1, Y1
	VPSHUFB  Y1, Y11, Y1
	VPADDB   Y1, Y0, Y0

	// Pack: c0<<6|c1 and c2<<6|c3 per word, their 24 bits per dword,
	// 12 bytes per lane, 24 bytes in the low six dwords.
	VPMADDUBSW Y7, Y0, Y0
	VPMADDWD   Y8, Y0, Y0
	VPSHUFB    Y12, Y0, Y0
	VPERMD     Y0, Y13, Y0
	VMOVDQU    X0, (DI)
	VEXTRACTI128 $1, Y0, X1
	VMOVQ      X1, 16(DI)

	ADDQ $32, SI
	ADDQ $24, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JAE  decLoop

decInvalid:
	VZEROUPPER

decDone:
	SUBQ R8, SI
	MOVQ SI, ret+48(FP)
	RET

DATA f64Exp<>+0(SB)/8, $0x7ff0000000000000
GLOBL f64Exp<>(SB), RODATA|NOPTR, $8

// func finiteAVX2(x []float64) bool
//
// One VPAND and one VPCMPEQQ per four values flag each whose exponent
// bits are all ones, a NaN or ±Inf; VPOR gathers the flags, and one
// VPTEST at the end reads them. The len(x)%4 values left over go
// through the same steps one at a time.
TEXT ·finiteAVX2(SB), NOSPLIT, $0-25
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VPBROADCASTQ f64Exp<>(SB), Y0
	VPXOR        Y1, Y1, Y1
	CMPQ         CX, $4
	JB           finTail

finLoop:
	VPAND    (SI), Y0, Y2
	VPCMPEQQ Y0, Y2, Y2
	VPOR     Y2, Y1, Y1
	ADDQ     $32, SI
	SUBQ     $4, CX
	CMPQ     CX, $4
	JAE      finLoop

finTail:
	TESTQ    CX, CX
	JZ       finDone
	VMOVQ    (SI), X2
	VPAND    X0, X2, X2
	VPCMPEQQ X0, X2, X2
	VPOR     Y2, Y1, Y1
	ADDQ     $8, SI
	DECQ     CX
	JMP      finTail

finDone:
	VPTEST Y1, Y1
	SETEQ  ret+24(FP)
	VZEROUPPER
	RET
