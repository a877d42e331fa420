#include "textflag.h"

// func bsr8AVX(dst, x, bias, blocks []float64, blockCols, rowPtr []int32)
//
// DX walks dst and R12 rowPtr, one block row at a time; R9 counts the
// full block rows left. BX is the tile index k, R13 the end of the
// block row's tiles. Per tile, AX points at its 64 weights (column cc
// at 64*cc bytes), R8 at x[c0], and CX holds the bytes of x from c0 on.
TEXT ·bsr8AVX(SB), NOSPLIT, $0-144
	MOVQ dst_base+0(FP), DX
	MOVQ dst_len+8(FP), R9
	SHRQ $3, R9
	JZ   done
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), R10
	SHLQ $3, R10
	MOVQ blocks_base+72(FP), SI
	MOVQ blockCols_base+96(FP), R11
	MOVQ rowPtr_base+120(FP), R12
	MOVLQSX (R12), BX

row:
	MOVLQSX 4(R12), R13
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	CMPQ    BX, R13
	JGE     store

tile:
	MOVQ    BX, AX
	SHLQ    $9, AX
	ADDQ    SI, AX
	MOVLQSX (R11)(BX*4), CX
	SHLQ    $6, CX
	LEAQ    (DI)(CX*1), R8
	NEGQ    CX
	ADDQ    R10, CX
	CMPQ    CX, $64
	JLT     edge
	VBROADCASTSD (R8), Y2
	VMULPD       (AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       32(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	VBROADCASTSD 8(R8), Y2
	VMULPD       64(AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       96(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	VBROADCASTSD 16(R8), Y2
	VMULPD       128(AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       160(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	VBROADCASTSD 24(R8), Y2
	VMULPD       192(AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       224(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	VBROADCASTSD 32(R8), Y2
	VMULPD       256(AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       288(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	VBROADCASTSD 40(R8), Y2
	VMULPD       320(AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       352(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	VBROADCASTSD 48(R8), Y2
	VMULPD       384(AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       416(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	VBROADCASTSD 56(R8), Y2
	VMULPD       448(AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       480(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	JMP     next

	// Right-edge tile: only the CX/8 columns inside x.
edge:
	VBROADCASTSD (R8), Y2
	VMULPD       (AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	VMULPD       32(AX), Y2, Y4
	VADDPD       Y4, Y1, Y1
	ADDQ         $8, R8
	ADDQ         $64, AX
	SUBQ         $8, CX
	JNZ          edge

next:
	INCQ BX
	CMPQ BX, R13
	JLT  tile

	// The row's bias, at the same offset in bias as DX is in dst.
store:
	CMPQ    bias_len+56(FP), $0
	JEQ     put
	MOVQ    DX, AX
	SUBQ    dst_base+0(FP), AX
	ADDQ    bias_base+48(FP), AX
	VADDPD  (AX), Y0, Y0
	VADDPD  32(AX), Y1, Y1

put:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, DX
	ADDQ    $4, R12
	DECQ    R9
	JNZ     row

done:
	VZEROUPPER
	RET
