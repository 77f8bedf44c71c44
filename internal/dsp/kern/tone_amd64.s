//go:build amd64 && !purego

#include "textflag.h"

// func mulTonePairsAsm(buf *complex128, npairs int, st *[6]float64)
//
// One sample pair (v, w) per iteration, chain a on v and chain b on w,
// with the two chains side by side in the lanes: AR = (aR, bR) in X0,
// AI = (aI, bI) in X1, and c2, s2 broadcast in X2, X3. The pair is
// transposed into R = (vr, wr) and I = (vi, wi), so each lane computes
// exactly mulToneGo's expressions in their operand order:
//
//   re = R·AR − I·AI        im = R·AI + I·AR
//   AR' = AR·c2 − AI·s2     AI' = AR·s2 + AI·c2
//
// and the results are transposed back into (re, im) pairs. MULPD,
// ADDPD and SUBPD round each operation, so nothing fuses.
TEXT ·mulTonePairsAsm(SB), NOSPLIT, $0-24
	MOVQ	buf+0(FP), DI
	MOVQ	npairs+8(FP), CX
	MOVQ	st+16(FP), SI

	MOVUPD	0(SI), X0	// AR
	MOVUPD	16(SI), X1	// AI
	MOVSD	32(SI), X2
	UNPCKLPD	X2, X2	// (c2, c2)
	MOVSD	40(SI), X3
	UNPCKLPD	X3, X3	// (s2, s2)

loop:
	MOVUPD	0(DI), X4	// (vr, vi)
	MOVUPD	16(DI), X5	// (wr, wi)
	MOVAPD	X4, X6
	UNPCKLPD	X5, X6	// R = (vr, wr)
	UNPCKHPD	X5, X4	// I = (vi, wi)

	MOVAPD	X6, X7
	MULPD	X0, X7	// R·AR
	MOVAPD	X4, X8
	MULPD	X1, X8	// I·AI
	SUBPD	X8, X7	// re = R·AR − I·AI
	MULPD	X1, X6	// R·AI
	MULPD	X0, X4	// I·AR
	ADDPD	X4, X6	// im = R·AI + I·AR

	MOVAPD	X7, X9
	UNPCKLPD	X6, X7	// (re_v, im_v)
	UNPCKHPD	X6, X9	// (re_w, im_w)
	MOVUPD	X7, 0(DI)
	MOVUPD	X9, 16(DI)

	MOVAPD	X0, X10
	MULPD	X2, X10	// AR·c2
	MOVAPD	X1, X11
	MULPD	X3, X11	// AI·s2
	SUBPD	X11, X10	// AR' = AR·c2 − AI·s2
	MULPD	X3, X0	// AR·s2
	MULPD	X2, X1	// AI·c2
	ADDPD	X1, X0	// AI' = AR·s2 + AI·c2
	MOVAPD	X0, X1
	MOVAPD	X10, X0

	ADDQ	$32, DI
	DECQ	CX
	JNZ	loop

	MOVUPD	X0, 0(SI)
	MOVUPD	X1, 16(SI)
	RET
