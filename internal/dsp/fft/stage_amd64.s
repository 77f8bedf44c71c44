//go:build amd64 && !purego

#include "textflag.h"

// SSE2 forms of the correlation path's stage kernels. Each XMM register
// holds one complex128 as (re, im); loads and stores are MOVUPD. Every
// lane performs the same IEEE operations, in the same order, as the Go
// expression of fwdStage4Go, invStage4Go, fwd8Go and inv8MulGo
// (fft.go), so every output is bit-identical to the Go kernel's:
//
//   - A complex product v·w, v = (a, b), w = (c, d), is
//     (c, c)·v + (−d, d)·swap(v) = (c·a + (−d)·b, c·b + d·a): each lane
//     adds the same two products as Go's (a·c − b·d, a·d + b·c), IEEE
//     multiplication and addition are commutative, and x + (−y) is
//     x − y bit for bit. The product by the conjugate c − id is
//     (c, c)·v − (−d, d)·swap(v) on the same packed table.
//   - A rotation by ±i is a swap (SHUFPD $1 in place, PSHUFD $0x4e into
//     another register) and a sign flip of one lane (XORPD with a sign
//     mask), as Go's negation flips the sign bit.
//   - No FMA, no reassociation: the j = 0 butterflies run without a
//     multiply, as in Go, so signed zeros match too.

DATA fftNegLo<>+0(SB)/8, $0x8000000000000000
DATA fftNegLo<>+8(SB)/8, $0
GLOBL fftNegLo<>(SB), RODATA|NOPTR, $16

DATA fftNegHi<>+0(SB)/8, $0
DATA fftNegHi<>+8(SB)/8, $0x8000000000000000
GLOBL fftNegHi<>(SB), RODATA|NOPTR, $16

// rt2 = 0.7071067811865476 is 0x3fe6a09e667f3bcd; −rt2 is 0xbfe6a09e667f3bcd.
DATA fftRt2<>+0(SB)/8, $0x3fe6a09e667f3bcd
DATA fftRt2<>+8(SB)/8, $0x3fe6a09e667f3bcd
GLOBL fftRt2<>(SB), RODATA|NOPTR, $16

DATA fftRt2NegHi<>+0(SB)/8, $0x3fe6a09e667f3bcd
DATA fftRt2NegHi<>+8(SB)/8, $0xbfe6a09e667f3bcd
GLOBL fftRt2NegHi<>(SB), RODATA|NOPTR, $16

DATA fftRt2NegLo<>+0(SB)/8, $0xbfe6a09e667f3bcd
DATA fftRt2NegLo<>+8(SB)/8, $0x3fe6a09e667f3bcd
GLOBL fftRt2NegLo<>(SB), RODATA|NOPTR, $16

// TWMUL multiplies v in place by the packed twiddle at off(R10):
// (c, c)·v + (−d, d)·swap(v). Clobbers X8–X10.
#define TWMUL(off, v) \
	MOVUPD off(R10), X8; \
	MOVUPD off+16(R10), X9; \
	PSHUFD $0x4e, v, X10; \
	MULPD  X8, v; \
	MULPD  X9, X10; \
	ADDPD  X10, v

// TWMULCONJ multiplies v in place by the conjugate of the packed
// twiddle at off(R10): (c, c)·v − (−d, d)·swap(v). Clobbers X8–X10.
#define TWMULCONJ(off, v) \
	MOVUPD off(R10), X8; \
	MOVUPD off+16(R10), X9; \
	PSHUFD $0x4e, v, X10; \
	MULPD  X8, v; \
	MULPD  X9, X10; \
	SUBPD  X10, v

// BFLY4 is the size-4 butterfly of fwdStage4Go and invStage4Go on
// t0..t3 in X0..X3, with X15 the sign mask that completes the rotation
// of t1 − t3 after its swap: the lane-1 mask gives fwdStage4Go's
// −i·(t1 − t3) = (im, −re), the lane-0 mask invStage4Go's
// +i·(t1 − t3) = (−im, re). With r that rotation it leaves
// (t0 + t2) + (t1 + t3) in X6, (t0 − t2) + r in X7, (t0 + t2) − (t1 + t3)
// in X4 and (t0 − t2) − r in X0.
#define BFLY4 \
	MOVAPD X0, X4; \
	ADDPD  X2, X4; \
	SUBPD  X2, X0; \
	MOVAPD X1, X5; \
	ADDPD  X3, X5; \
	SUBPD  X3, X1; \
	SHUFPD $1, X1, X1; \
	XORPD  X15, X1; \
	MOVAPD X4, X6; \
	ADDPD  X5, X6; \
	SUBPD  X5, X4; \
	MOVAPD X0, X7; \
	ADDPD  X1, X7; \
	SUBPD  X1, X0

// func fwdStage4(x []complex128, n, size int, tw []float64)
//
// Per block of size complex values: R8 walks quarter 0 and R9 quarter
// 1; quarters 2 and 3 sit 2·AX bytes beyond them. R10 walks the packed
// twiddle triples, 96 bytes per butterfly.
TEXT ·fwdStage4(SB), NOSPLIT, $0-64
	MOVQ   x_base+0(FP), DI
	MOVQ   n+24(FP), CX
	MOVQ   size+32(FP), DX
	MOVQ   tw_base+40(FP), SI
	MOVUPD fftNegHi<>(SB), X15
	MOVQ   DX, AX
	SHLQ   $2, AX              // AX = 16·size/4: bytes per quarter
	SHLQ   $4, DX              // DX = bytes per block
	SHLQ   $4, CX
	ADDQ   DI, CX              // CX = end of x
	MOVQ   AX, BX
	SHRQ   $4, BX
	DECQ   BX                  // BX = size/4 − 1 twiddled butterflies
	ADDQ   $96, SI             // the j = 1 twiddles

fwdBlock:
	MOVQ   DI, R8
	LEAQ   (DI)(AX*1), R9

	// j = 0: unit twiddles.
	MOVUPD (R8), X0
	MOVUPD (R9), X1
	MOVUPD (R8)(AX*2), X2
	MOVUPD (R9)(AX*2), X3
	BFLY4
	MOVUPD X6, (R8)
	MOVUPD X7, (R9)
	MOVUPD X4, (R8)(AX*2)
	MOVUPD X0, (R9)(AX*2)
	ADDQ   $16, R8
	ADDQ   $16, R9
	MOVQ   SI, R10
	MOVQ   BX, R11
	TESTQ  R11, R11
	JZ     fwdNext

fwdLoop:
	MOVUPD (R8), X0
	MOVUPD (R9), X1
	MOVUPD (R8)(AX*2), X2
	MOVUPD (R9)(AX*2), X3
	BFLY4
	TWMUL(0, X7)               // (u2 + iu3)·ω^j
	TWMUL(32, X4)              // (u0 − u1)·ω^{2j}
	TWMUL(64, X0)              // (u2 − iu3)·ω^{3j}
	MOVUPD X6, (R8)
	MOVUPD X7, (R9)
	MOVUPD X4, (R8)(AX*2)
	MOVUPD X0, (R9)(AX*2)
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $96, R10
	DECQ   R11
	JNZ    fwdLoop

fwdNext:
	ADDQ   DX, DI
	CMPQ   DI, CX
	JB     fwdBlock
	RET

// func invStage4(x []complex128, n, size int, tw []float64)
//
// fwdStage4's layout, with the conjugated twiddle products first and
// the +i butterfly after.
TEXT ·invStage4(SB), NOSPLIT, $0-64
	MOVQ   x_base+0(FP), DI
	MOVQ   n+24(FP), CX
	MOVQ   size+32(FP), DX
	MOVQ   tw_base+40(FP), SI
	MOVUPD fftNegLo<>(SB), X15
	MOVQ   DX, AX
	SHLQ   $2, AX
	SHLQ   $4, DX
	SHLQ   $4, CX
	ADDQ   DI, CX
	MOVQ   AX, BX
	SHRQ   $4, BX
	DECQ   BX
	ADDQ   $96, SI

invBlock:
	MOVQ   DI, R8
	LEAQ   (DI)(AX*1), R9

	// j = 0: unit twiddles.
	MOVUPD (R8), X0
	MOVUPD (R9), X1
	MOVUPD (R8)(AX*2), X2
	MOVUPD (R9)(AX*2), X3
	BFLY4
	MOVUPD X6, (R8)
	MOVUPD X7, (R9)
	MOVUPD X4, (R8)(AX*2)
	MOVUPD X0, (R9)(AX*2)
	ADDQ   $16, R8
	ADDQ   $16, R9
	MOVQ   SI, R10
	MOVQ   BX, R11
	TESTQ  R11, R11
	JZ     invNext

invLoop:
	MOVUPD (R8), X0
	MOVUPD (R9), X1
	MOVUPD (R8)(AX*2), X2
	MOVUPD (R9)(AX*2), X3
	TWMULCONJ(0, X1)           // t1 = x1[j]·conj(ω^j)
	TWMULCONJ(32, X2)          // t2 = x2[j]·conj(ω^{2j})
	TWMULCONJ(64, X3)          // t3 = x3[j]·conj(ω^{3j})
	BFLY4
	MOVUPD X6, (R8)
	MOVUPD X7, (R9)
	MOVUPD X4, (R8)(AX*2)
	MOVUPD X0, (R9)(AX*2)
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $96, R10
	DECQ   R11
	JNZ    invLoop

invNext:
	ADDQ   DX, DI
	CMPQ   DI, CX
	JB     invBlock
	RET

// func fwd8(x []complex128)
//
// One 8-block per iteration: the even samples' size-4 butterfly gives
// s0..s3, the odd samples' gives t0..t3, which take the ω₈ twiddles
// before the final size-2 stage.
TEXT ·fwd8(SB), NOSPLIT, $0-24
	MOVQ   x_base+0(FP), DI
	MOVQ   x_len+8(FP), CX
	SHRQ   $3, CX
	JZ     fwd8Done
	MOVUPD fftNegHi<>(SB), X13
	MOVUPD fftRt2<>(SB), X14
	MOVUPD fftRt2NegHi<>(SB), X15

fwd8Loop:
	MOVUPD 0(DI), X0           // a0 = x[i]
	MOVUPD 32(DI), X1          // a1 = x[i+2]
	MOVUPD 64(DI), X2          // a2 = x[i+4]
	MOVUPD 96(DI), X3          // a3 = x[i+6]
	MOVAPD X0, X4
	ADDPD  X2, X4              // u0 = a0 + a2
	SUBPD  X2, X0              // u2 = a0 − a2
	MOVAPD X1, X5
	ADDPD  X3, X5              // u1 = a1 + a3
	SUBPD  X3, X1              // u3 = a1 − a3
	SHUFPD $1, X1, X1
	XORPD  X13, X1             // iu3 = (im u3, −re u3)
	MOVAPD X4, X6
	ADDPD  X5, X6              // s0 = u0 + u1
	SUBPD  X5, X4              // s2 = u0 − u1
	MOVAPD X0, X5
	ADDPD  X1, X5              // s1 = u2 + iu3
	SUBPD  X1, X0              // s3 = u2 − iu3

	MOVUPD 16(DI), X1          // b0 = x[i+1]
	MOVUPD 48(DI), X2          // b1 = x[i+3]
	MOVUPD 80(DI), X3          // b2 = x[i+5]
	MOVUPD 112(DI), X7         // b3 = x[i+7]
	MOVAPD X1, X8
	ADDPD  X3, X8              // v0 = b0 + b2
	SUBPD  X3, X1              // v2 = b0 − b2
	MOVAPD X2, X9
	ADDPD  X7, X9              // v1 = b1 + b3
	SUBPD  X7, X2              // v3 = b1 − b3
	SHUFPD $1, X2, X2
	XORPD  X13, X2             // iv3 = (im v3, −re v3)
	MOVAPD X8, X3
	ADDPD  X9, X3              // t0 = v0 + v1
	SUBPD  X9, X8              // t2 = v0 − v1
	SHUFPD $1, X8, X8
	XORPD  X13, X8             // t2·(−i) = (im t2, −re t2)
	MOVAPD X1, X7
	ADDPD  X2, X7              // t1 = v2 + iv3
	SUBPD  X2, X1              // t3 = v2 − iv3

	// t1·(1−i)/√2 = ((re+im)·rt2, (im−re)·rt2) = (t1 + (im, −re))·rt2.
	PSHUFD $0x4e, X7, X9
	XORPD  X13, X9
	ADDPD  X9, X7
	MULPD  X14, X7

	// t3·(−1−i)/√2 = ((im−re)·rt2, −(re+im)·rt2)
	//              = ((im, re) − (re, −im))·(rt2, −rt2).
	PSHUFD $0x4e, X1, X9
	XORPD  X13, X1
	SUBPD  X1, X9
	MULPD  X15, X9

	MOVAPD X6, X10
	ADDPD  X3, X10
	MOVUPD X10, 0(DI)          // x[i] = s0 + t0
	SUBPD  X3, X6
	MOVUPD X6, 16(DI)          // x[i+1] = s0 − t0
	MOVAPD X5, X10
	ADDPD  X7, X10
	MOVUPD X10, 32(DI)         // x[i+2] = s1 + t1
	SUBPD  X7, X5
	MOVUPD X5, 48(DI)          // x[i+3] = s1 − t1
	MOVAPD X4, X10
	ADDPD  X8, X10
	MOVUPD X10, 64(DI)         // x[i+4] = s2 + t2
	SUBPD  X8, X4
	MOVUPD X4, 80(DI)          // x[i+5] = s2 − t2
	MOVAPD X0, X10
	ADDPD  X9, X10
	MOVUPD X10, 96(DI)         // x[i+6] = s3 + t3
	SUBPD  X9, X0
	MOVUPD X0, 112(DI)         // x[i+7] = s3 − t3
	ADDQ   $128, DI
	DECQ   CX
	JNZ    fwd8Loop

fwd8Done:
	RET

// SPECMUL loads src[off] and spec[off] and leaves their product in p:
// (re s, re s)·c + (im s, im s)·(−im c, re c), Go's operand order
// (re s·re c − im s·im c, re s·im c + im s·re c). Clobbers X9, X10.
#define SPECMUL(off, p) \
	MOVUPD off(SI), p; \
	MOVUPD off(DX), X9; \
	PSHUFD $0xee, p, X10; \
	PSHUFD $0x44, p, p; \
	MULPD  X9, p; \
	PSHUFD $0x4e, X9, X9; \
	XORPD  X12, X9; \
	MULPD  X9, X10; \
	ADDPD  X10, p

// func inv8Mul(x, src, spec []complex128)
//
// One 8-block per iteration: eight products, the size-2 stage into
// s0..s3 (X0–X3) and t0..t3 (X4–X7), then the size-8 stage. Every
// source is read before the block's first store, so x may be src.
TEXT ·inv8Mul(SB), NOSPLIT, $0-72
	MOVQ   x_base+0(FP), DI
	MOVQ   x_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	MOVQ   spec_base+48(FP), DX
	SHRQ   $3, CX
	JZ     inv8Done
	MOVUPD fftNegLo<>(SB), X12
	MOVUPD fftNegHi<>(SB), X13
	MOVUPD fftRt2<>(SB), X14
	MOVUPD fftRt2NegLo<>(SB), X15

inv8Loop:
	SPECMUL(0, X0)             // p0
	SPECMUL(16, X11)           // p1
	MOVAPD X0, X4
	ADDPD  X11, X0             // s0 = p0 + p1
	SUBPD  X11, X4             // t0 = p0 − p1
	SPECMUL(32, X1)
	SPECMUL(48, X11)
	MOVAPD X1, X5
	ADDPD  X11, X1             // s1 = p2 + p3
	SUBPD  X11, X5             // t1 = p2 − p3
	SPECMUL(64, X2)
	SPECMUL(80, X11)
	MOVAPD X2, X6
	ADDPD  X11, X2             // s2 = p4 + p5
	SUBPD  X11, X6             // t2 = p4 − p5
	SPECMUL(96, X3)
	SPECMUL(112, X11)
	MOVAPD X3, X7
	ADDPD  X11, X3             // s3 = p6 + p7
	SUBPD  X11, X7             // t3 = p6 − p7

	MOVAPD X0, X8
	ADDPD  X2, X8              // v0 = s0 + s2
	SUBPD  X2, X0              // v2 = s0 − s2
	MOVAPD X1, X9
	ADDPD  X3, X9              // v1 = s1 + s3
	SUBPD  X3, X1              // d = s1 − s3
	SHUFPD $1, X1, X1
	XORPD  X12, X1             // v3 = (−im d, re d)
	MOVAPD X8, X10
	ADDPD  X9, X10
	MOVUPD X10, 0(DI)          // x[i] = v0 + v1
	SUBPD  X9, X8
	MOVUPD X8, 64(DI)          // x[i+4] = v0 − v1
	MOVAPD X0, X10
	ADDPD  X1, X10
	MOVUPD X10, 32(DI)         // x[i+2] = v2 + v3
	SUBPD  X1, X0
	MOVUPD X0, 96(DI)          // x[i+6] = v2 − v3

	// w1 = t1·(1+i)/√2 = ((re−im)·rt2, (re+im)·rt2) = (t1 + (−im, re))·rt2.
	PSHUFD $0x4e, X5, X9
	XORPD  X12, X9
	ADDPD  X9, X5
	MULPD  X14, X5

	// w2 = +i·t2 = (−im, re).
	SHUFPD $1, X6, X6
	XORPD  X12, X6

	// w3 = t3·(−1+i)/√2 = (−(re+im)·rt2, (re−im)·rt2)
	//    = ((re, −im) + (im, re))·(−rt2, rt2).
	PSHUFD $0x4e, X7, X9
	XORPD  X13, X7
	ADDPD  X9, X7
	MULPD  X15, X7

	MOVAPD X4, X8
	ADDPD  X6, X8              // v0 = t0 + w2
	SUBPD  X6, X4              // v2 = t0 − w2
	MOVAPD X5, X9
	ADDPD  X7, X9              // v1 = w1 + w3
	SUBPD  X7, X5              // d = w1 − w3
	SHUFPD $1, X5, X5
	XORPD  X12, X5             // v3 = (−im d, re d)
	MOVAPD X8, X10
	ADDPD  X9, X10
	MOVUPD X10, 16(DI)         // x[i+1] = v0 + v1
	SUBPD  X9, X8
	MOVUPD X8, 80(DI)          // x[i+5] = v0 − v1
	MOVAPD X4, X10
	ADDPD  X5, X10
	MOVUPD X10, 48(DI)         // x[i+3] = v2 + v3
	SUBPD  X5, X4
	MOVUPD X4, 112(DI)         // x[i+7] = v2 − v3
	ADDQ   $128, DI
	ADDQ   $128, SI
	ADDQ   $128, DX
	DECQ   CX
	JNZ    inv8Loop

inv8Done:
	RET
