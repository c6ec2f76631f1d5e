//go:build amd64 && !purego

#include "textflag.h"

// The lane kernel of FitLogistic: each YMM lane is one row of a 4-row block,
// so every operation below is the scalar kernel's, on four rows at once. See
// DESIGN.md "Fit kernel" for why its bits are the portable kernel's.

// Constants, each repeated across the four lanes of a YMM. The exponential's
// are math.Exp's own (math/exp_amd64.s), written with the same literals.
#define LANES(off, v) DATA fitconst<>+(off)(SB)/8, v; DATA fitconst<>+(off+8)(SB)/8, v; DATA fitconst<>+(off+16)(SB)/8, v; DATA fitconst<>+(off+24)(SB)/8, v

LANES(0, $0x8000000000000000)                          // sign bit
LANES(32, $-708.0)                                     // lowest exponent the lanes take
LANES(64, $1.4426950408889634073599246810018920)       // LOG2E
LANES(96, $0x4338000000000000)                         // 1.5·2^52: adding it rounds to an integer
LANES(128, $0.69314718055966295651160180568695068359375) // LN2U
LANES(160, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(192, $0.0625)
LANES(224, $2.4801587301587301587e-5)
LANES(256, $1.9841269841269841270e-4)
LANES(288, $1.3888888888888888889e-3)
LANES(320, $8.3333333333333333333e-3)
LANES(352, $4.1666666666666666667e-2)
LANES(384, $1.6666666666666666667e-1)
LANES(416, $0.5)
LANES(448, $1.0)
LANES(480, $2.0)
LANES(512, $1023)                                      // exponent bias, an int64 per lane
GLOBL fitconst<>(SB), RODATA, $544

// INRANGE sets mask to 15 when every lane of X is ≥ -708: NaN and anything
// lower leave a bit clear.
#define INRANGE(X, T, mask) \
	VCMPPD $0x0D, fitconst<>+32(SB), X, T; \
	VMOVMSKPD T, mask

// EXP replaces each lane x of X, -708 ≤ x ≤ 0, with exp(x), by the steps of
// math.Exp's FMA path: k = round(x·LOG2E) (CVTSD2SL's rounding, done by the
// 1.5·2^52 add), x - k·LN2U - k·LN2L fused, ×1/16, the Horner chain fused,
// three x·(x+2), one fused x·(x+2)+1, then ×2^k built from (k+1023)<<52,
// which stays normal over the range. K, T and P are scratch.
#define EXP(X, K, T, P) \
	VMULPD fitconst<>+64(SB), X, T; \
	VADDPD fitconst<>+96(SB), T, K; \
	VSUBPD fitconst<>+96(SB), K, T; \
	VFNMADD231PD fitconst<>+128(SB), T, X; \
	VFNMADD231PD fitconst<>+160(SB), T, X; \
	VMULPD fitconst<>+192(SB), X, X; \
	VMOVUPD fitconst<>+224(SB), P; \
	VFMADD213PD fitconst<>+256(SB), X, P; \
	VFMADD213PD fitconst<>+288(SB), X, P; \
	VFMADD213PD fitconst<>+320(SB), X, P; \
	VFMADD213PD fitconst<>+352(SB), X, P; \
	VFMADD213PD fitconst<>+384(SB), X, P; \
	VFMADD213PD fitconst<>+416(SB), X, P; \
	VFMADD213PD fitconst<>+448(SB), X, P; \
	VMULPD P, X, X; \
	VADDPD fitconst<>+480(SB), X, P; \
	VMULPD P, X, X; \
	VADDPD fitconst<>+480(SB), X, P; \
	VMULPD P, X, X; \
	VADDPD fitconst<>+480(SB), X, P; \
	VMULPD P, X, X; \
	VADDPD fitconst<>+480(SB), X, P; \
	VFMADD213PD fitconst<>+448(SB), P, X; \
	VPADDQ fitconst<>+512(SB), K, K; \
	VPSLLQ $52, K, K; \
	VMULPD K, X, X

// func expLanes(x *[4]float64) bool
TEXT ·expLanes(SB), NOSPLIT, $0-9
	MOVQ    x+0(FP), AX
	VMOVUPD (AX), Y2
	INRANGE(Y2, Y3, BX)
	CMPQ    BX, $15
	JNE     reject
	EXP(Y2, Y4, Y3, Y5)
	VMOVUPD Y2, (AX)
	MOVB    $1, ret+8(FP)
	VZEROUPPER
	RET
reject:
	MOVB    $0, ret+8(FP)
	VZEROUPPER
	RET

// func laneBlocks(panel, rows, ts *float64, blocks, p, stride int, w *float64, b float64, gw *float64, gb float64) (done int, gbOut float64)
//
// Runs up to blocks 4-row blocks: panel holds each block's columns as 4
// lanes, rows the same rows row-major at stride (a multiple of 4, at most
// 12), ts the labels. gw[0:12] and gb are added to in row order. It stops
// before a block whose exponent lanes leave [-708, 0] and reports how many
// blocks it finished.
TEXT ·laneBlocks(SB), NOSPLIT, $0-96
	MOVQ    panel+0(FP), SI
	MOVQ    rows+8(FP), DI
	MOVQ    ts+16(FP), DX
	MOVQ    blocks+24(FP), CX
	MOVQ    p+32(FP), R8
	MOVQ    stride+40(FP), R9
	SHLQ    $3, R9
	MOVQ    w+48(FP), R10
	MOVQ    gw+64(FP), R11
	VMOVSD  gb+72(FP), X14
	VMOVUPD fitconst<>+448(SB), Y10
	VMOVUPD 0(R11), Y11
	VMOVUPD 32(R11), Y12
	VMOVUPD 64(R11), Y13
	XORQ    AX, AX

block:
	CMPQ    AX, CX
	JEQ     out

	// z = b + w[0]·x[0] + w[1]·x[1] + ..., column by column, unfused.
	VBROADCASTSD b+56(FP), Y0
	MOVQ    R10, BX
	MOVQ    R8, R12
dot:
	VBROADCASTSD (BX), Y1
	VMULPD  (SI), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $8, BX
	ADDQ    $32, SI
	DECQ    R12
	JNZ     dot

	// a = exp(-|z|); a lane the lanes cannot take hands the block back.
	VORPD   fitconst<>+0(SB), Y0, Y2
	INRANGE(Y2, Y3, BX)
	CMPQ    BX, $15
	JNE     out
	EXP(Y2, Y4, Y3, Y5)

	// e = t - num/(1+a), num = a where z's sign bit is set and 1 elsewhere.
	VADDPD    Y10, Y2, Y3
	VBLENDVPD Y0, Y2, Y10, Y4
	VDIVPD    Y3, Y4, Y4
	VMOVUPD   (DX), Y5
	VSUBPD    Y4, Y5, Y5

	// gb += e0; gb += e1; gb += e2; gb += e3.
	VADDSD       X5, X14, X14
	VPERMILPD    $1, X5, X6
	VADDSD       X6, X14, X14
	VEXTRACTF128 $1, Y5, X7
	VADDSD       X7, X14, X14
	VPERMILPD    $1, X7, X6
	VADDSD       X6, X14, X14

	// gw += e0·row0; gw += e1·row1; ... four columns to a register.
	VBROADCASTSD X5, Y6
	VPERMPD      $0x55, Y5, Y7
	VPERMPD      $0xAA, Y5, Y8
	VPERMPD      $0xFF, Y5, Y9
	LEAQ         (DI)(R9*2), BX
	VMULPD       (DI), Y6, Y1
	VADDPD       Y1, Y11, Y11
	VMULPD       (DI)(R9*1), Y7, Y1
	VADDPD       Y1, Y11, Y11
	VMULPD       (BX), Y8, Y1
	VADDPD       Y1, Y11, Y11
	VMULPD       (BX)(R9*1), Y9, Y1
	VADDPD       Y1, Y11, Y11
	CMPQ         R9, $32
	JEQ          next
	VMULPD       32(DI), Y6, Y1
	VADDPD       Y1, Y12, Y12
	VMULPD       32(DI)(R9*1), Y7, Y1
	VADDPD       Y1, Y12, Y12
	VMULPD       32(BX), Y8, Y1
	VADDPD       Y1, Y12, Y12
	VMULPD       32(BX)(R9*1), Y9, Y1
	VADDPD       Y1, Y12, Y12
	CMPQ         R9, $64
	JEQ          next
	VMULPD       64(DI), Y6, Y1
	VADDPD       Y1, Y13, Y13
	VMULPD       64(DI)(R9*1), Y7, Y1
	VADDPD       Y1, Y13, Y13
	VMULPD       64(BX), Y8, Y1
	VADDPD       Y1, Y13, Y13
	VMULPD       64(BX)(R9*1), Y9, Y1
	VADDPD       Y1, Y13, Y13

next:
	LEAQ    (DI)(R9*4), DI
	ADDQ    $32, DX
	INCQ    AX
	JMP     block

out:
	VMOVUPD Y11, 0(R11)
	VMOVUPD Y12, 32(R11)
	VMOVUPD Y13, 64(R11)
	MOVQ    AX, done+80(FP)
	VMOVSD  X14, gbOut+88(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
