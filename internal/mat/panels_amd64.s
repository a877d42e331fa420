#include "textflag.h"

// func panelAVX(w, x []float64, b, out *[16]float64)
TEXT ·panelAVX(SB), NOSPLIT, $0-64
	MOVQ w_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), CX
	MOVQ b+48(FP), BX
	MOVQ out+56(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop:
	VBROADCASTSD (DI), Y4
	VMULPD       (SI), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(SI), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(SI), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(SI), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, DI
	ADDQ         $128, SI
	DECQ         CX
	JNZ          loop

	// The bias, then the stores.
	VADDPD  (BX), Y0, Y0
	VADDPD  32(BX), Y1, Y1
	VADDPD  64(BX), Y2, Y2
	VADDPD  96(BX), Y3, Y3
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func panel2AVX(w, x []float64, b, out *[32]float64)
TEXT ·panel2AVX(SB), NOSPLIT, $0-64
	MOVQ w_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), CX
	MOVQ b+48(FP), BX
	MOVQ out+56(FP), DX

	// R8 walks the second panel, 16*len(x) weights past the first.
	MOVQ CX, R8
	SHLQ $7, R8
	ADDQ SI, R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop2:
	VBROADCASTSD (DI), Y8
	VMULPD       (SI), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(SI), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(SI), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(SI), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       (R8), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       32(R8), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       64(R8), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       96(R8), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $8, DI
	ADDQ         $128, SI
	ADDQ         $128, R8
	DECQ         CX
	JNZ          loop2

	// The bias, then the stores.
	VADDPD  (BX), Y0, Y0
	VADDPD  32(BX), Y1, Y1
	VADDPD  64(BX), Y2, Y2
	VADDPD  96(BX), Y3, Y3
	VADDPD  128(BX), Y4, Y4
	VADDPD  160(BX), Y5, Y5
	VADDPD  192(BX), Y6, Y6
	VADDPD  224(BX), Y7, Y7
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27 is OSXSAVE, bit 28 is AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	// XCR0 bit 1 is the SSE state, bit 2 the AVX (upper YMM) state.
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	// EAX is the highest basic leaf.
	CMPL AX, $7
	JLT  no2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	// EBX bit 5 is AVX2.
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no2:
	MOVB $0, ret+0(FP)
	RET
