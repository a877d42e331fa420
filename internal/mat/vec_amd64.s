#include "textflag.h"

// func groupNormsAVX(dst, x []float64, group int, eps float64)
//
// SI walks x one member at a time; R8, R9 and R10 are one, two and
// three groups in bytes, so (SI), (SI)(R8*1), (SI)(R9*1) and
// (SI)(R10*1) are the same member of four consecutive groups. R11
// counts the passes of four groups left and CX a pass's member pairs
// left.
TEXT ·groupNormsAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DX
	MOVQ dst_len+8(FP), R11
	SHRQ $2, R11
	JZ   done
	MOVQ x_base+24(FP), SI
	MOVQ group+48(FP), BX
	VBROADCASTSD eps+56(FP), Y7
	MOVQ BX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*1), R9
	LEAQ (R9)(R8*1), R10

pass:
	VXORPD Y0, Y0, Y0
	MOVQ   BX, CX
	SHRQ   $1, CX
	JZ     odd

	// Two members per step: 16-byte loads of groups 0 and 2 and of
	// groups 1 and 3, then VUNPCKLPD and VUNPCKHPD turn them into the
	// four lanes of member k and of member k+1, added in that order.
pair:
	VMOVUPD     (SI), X1
	VINSERTF128 $1, (SI)(R9*1), Y1, Y1
	VMOVUPD     (SI)(R8*1), X2
	VINSERTF128 $1, (SI)(R10*1), Y2, Y2
	VUNPCKLPD   Y2, Y1, Y3
	VUNPCKHPD   Y2, Y1, Y4
	VMULPD      Y3, Y3, Y3
	VADDPD      Y3, Y0, Y0
	VMULPD      Y4, Y4, Y4
	VADDPD      Y4, Y0, Y0
	ADDQ        $16, SI
	DECQ        CX
	JNZ         pair

	// An odd group's last member, from four scalar loads.
odd:
	TESTQ       $1, BX
	JZ          roots
	VMOVSD      (SI), X1
	VMOVHPD     (SI)(R8*1), X1, X1
	VMOVSD      (SI)(R9*1), X2
	VMOVHPD     (SI)(R10*1), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMULPD      Y1, Y1, Y1
	VADDPD      Y1, Y0, Y0
	ADDQ        $8, SI

	// s + eps, then the four roots. SI is one group past the pass's
	// first member: skip the three groups the lanes above covered.
roots:
	VADDPD  Y7, Y0, Y0
	VSQRTPD Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ    R10, SI
	ADDQ    $32, DX
	DECQ    R11
	JNZ     pass

done:
	VZEROUPPER
	RET

// func scaleAVX(dst []float64, alpha float64, x []float64)
TEXT ·scaleAVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DX
	MOVQ         x_base+32(FP), SI
	MOVQ         x_len+40(FP), CX
	VBROADCASTSD alpha+24(FP), Y0
	MOVQ         CX, BX
	SHRQ         $2, BX
	JZ           scaletail

scalequad:
	VMULPD  (SI), Y0, Y1
	VMOVUPD Y1, (DX)
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    BX
	JNZ     scalequad

scaletail:
	ANDQ $3, CX
	JZ   scaledone

scaleone:
	VMULSD (SI), X0, X1
	VMOVSD X1, (DX)
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    scaleone

scaledone:
	VZEROUPPER
	RET
