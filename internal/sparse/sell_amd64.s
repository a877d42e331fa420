#include "textflag.h"

// func sell4AVX(dst, x, bias, weights []float64, cols, groupPtr, perm []int32)
//
// SI walks weights and R11 cols, one step (32 and 16 bytes) at a time;
// the groups' steps are contiguous, so neither pointer is reloaded
// between groups. R12 walks groupPtr, R13 perm and R14 bias, one group
// at a time; R9 counts the groups left and CX a group's steps left.
TEXT ·sell4AVX(SB), NOSPLIT, $0-168
	MOVQ perm_len+152(FP), R9
	SHRQ $2, R9
	JZ   done
	MOVQ dst_base+0(FP), DX
	MOVQ x_base+24(FP), DI
	MOVQ bias_base+48(FP), R14
	MOVQ weights_base+72(FP), SI
	MOVQ cols_base+96(FP), R11
	MOVQ groupPtr_base+120(FP), R12
	MOVQ perm_base+144(FP), R13

group:
	MOVLQSX 4(R12), CX
	MOVLQSX (R12), AX
	SUBQ    AX, CX
	VXORPD  Y0, Y0, Y0
	JZ      store

step:
	MOVLQSX     (R11), AX
	MOVLQSX     4(R11), BX
	MOVLQSX     8(R11), R8
	MOVLQSX     12(R11), R10
	VMOVSD      (DI)(AX*8), X1
	VMOVHPD     (DI)(BX*8), X1, X1
	VMOVSD      (DI)(R8*8), X2
	VMOVHPD     (DI)(R10*8), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMULPD      (SI), Y1, Y1
	VADDPD      Y1, Y0, Y0
	ADDQ        $32, SI
	ADDQ        $16, R11
	DECQ        CX
	JNZ         step

	// Bias last, then each lane to its row.
store:
	VADDPD       (R14), Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	MOVLQSX      (R13), AX
	MOVLQSX      4(R13), BX
	MOVLQSX      8(R13), R8
	MOVLQSX      12(R13), R10
	VMOVSD       X0, (DX)(AX*8)
	VMOVHPD      X0, (DX)(BX*8)
	VMOVSD       X1, (DX)(R8*8)
	VMOVHPD      X1, (DX)(R10*8)
	ADDQ         $4, R12
	ADDQ         $16, R13
	ADDQ         $32, R14
	DECQ         R9
	JNZ          group

done:
	VZEROUPPER
	RET
