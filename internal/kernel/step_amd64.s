#include "textflag.h"
#include "go_asm.h"

DATA stepHalf<>+0(SB)/8, $0x3fe0000000000000 // 0.5
GLOBL stepHalf<>(SB), RODATA|NOPTR, $8
DATA stepAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL stepAbs<>(SB), RODATA|NOPTR, $8
DATA stepOne<>+0(SB)/4, $1
GLOBL stepOne<>(SB), RODATA|NOPTR, $4
DATA stepUnit<>+0(SB)/8, $0x3ff0000000000000 // 1
GLOBL stepUnit<>(SB), RODATA|NOPTR, $8
DATA stepMagic<>+0(SB)/8, $0x4338000000000000 // 2⁵²+2⁵¹, see stepQAVX2
GLOBL stepMagic<>(SB), RODATA|NOPTR, $8

// ENDS readies one lane of the group at AX for a step: it leaves the
// address of the lane's window c[β:] in xw and the window's
// {Σc, Σc²} = sums[β+n] − sums[β] in xs. k8 and k24 are the lane's byte
// offsets into arrays of words and of slice headers; DX holds 16·n.
#define ENDS(k8, k24, xw, xs) \
	MOVQ    group_beta+k8(AX), R13;  \
	MOVQ    group_c+k24(AX), xw;     \
	LEAQ    (xw)(R13*2), xw;         \
	MOVQ    group_sums+k24(AX), DI;  \
	SHLQ    $4, R13;                 \
	ADDQ    R13, DI;                 \
	VMOVUPD (DI)(DX*1), xs;          \
	VSUBPD  (DI), xs, xs

// MOVE is what follows ω in a step, for the four lanes of the group at
// AX at once: Y0 holds the four ω
// (+0 in masked lanes) and the macro stores them, tests them against δ,
// raises the envelopes, takes the advances, moves the offsets, decays
// the envelopes and tests for the end of each pass, leaving the step's
// event bits in DI and the evaluations counted.
//
// Every select is a compare and a mask, or a VMAXPD whose operand order
// is the portable comparison's: VMAXPD returns its second source unless
// the first is greater, so (a, env) keeps env and (env, floor) gives
// the floor — never a NaN the portable route would not have. The
// convert is the 32-bit one: the routine runs only for a rule whose table
// covers every advance, so SkipNum/e + 0.5 < 4097.
//
//	ω > δ, ordered                       → R13
//	a = |ω|, a NaN → +0                  → Y4
//	a if a > env, else env               → Y5
//	env if env > floor, else floor       → Y6
//	adv (0 for a masked lane)            → Y7
//	β > maxOff                           → Y11
#define MOVE \
	VMOVUPD      Y0, group_omega(AX); \
	VBROADCASTSD Walk_rule+SkipRule_Delta(R12), Y2; \
	VCMPPD       $0x1E, Y2, Y0, Y3; \
	VMOVMSKPD    Y3, R13; \
	VBROADCASTSD stepAbs<>(SB), Y2; \
	VANDPD       Y2, Y0, Y4; \
	VCMPPD       $7, Y4, Y4, Y2; \
	VANDPD       Y2, Y4, Y4; \
	VMOVUPD      group_env(AX), Y5; \
	VMAXPD       Y5, Y4, Y5; \
	VBROADCASTSD Walk_rule+SkipRule_Floor(R12), Y6; \
	VMAXPD       Y6, Y5, Y6; \
	VBROADCASTSD Walk_rule+SkipRule_SkipNum(R12), Y7; \
	VDIVPD       Y6, Y7, Y7; \
	VBROADCASTSD stepHalf<>(SB), Y2; \
	VADDPD       Y2, Y7, Y7; \
	VCVTTPD2DQY  Y7, X7; \
	VPBROADCASTD stepOne<>(SB), X2; \
	VPMAXSD      X2, X7, X7; \
	VPMOVSXDQ    X7, Y7; \
	VPAND        group_live(AX), Y7, Y7; \
	VMOVDQU      group_beta(AX), Y8; \
	VMOVDQU      Y8, group_at(AX); \
	VPADDQ       Y7, Y8, Y8; \
	VMOVDQU      Y8, group_beta(AX); \
	MOVQ         Walk_rule+SkipRule_Decay(R12), DI; \
	VPCMPEQD     Y9, Y9, Y9; \
	VGATHERQPD   Y9, (DI)(Y7*8), Y10; \
	VMULPD       Y10, Y5, Y5; \
	VMOVUPD      Y5, group_env(AX); \
	VPCMPGTQ     group_maxOff(AX), Y8, Y11; \
	VMOVMSKPD    Y11, DI; \
	SHLQ         $4, DI; \
	ORQ          R13, DI; \
	ANDL         group_liveBits(AX), DI; \
	MOVQ         group_nlive(AX), DX; \
	ADDQ         DX, group_evals(AX)

// REPORT returns a step's events (DI) and whether the group that took it
// (AX) was b.
#define REPORT \
	XORL  DX, DX;            \
	CMPQ  AX, a+8(FP);       \
	SETNE DL;                \
	MOVQ  DX, which+24(FP);  \
	MOVL  DI, events+32(FP); \
	VZEROUPPER;              \
	RET

// WINDOWQ is one block of one window's integer dot: the sixteen counts
// DI bytes into the window at x against the query block's high bytes
// (Y12) and low bytes (Y13), eight int32 pair sums each, added into the
// window's two accumulators. No lane can overflow before the flush (see
// splitQuery).
#define WINDOWQ(x, h, l) \
	VMOVDQU  (x)(DI*1), Y14; \
	VPMADDWD Y14, Y12, Y15;  \
	VPMADDWD Y14, Y13, Y14;  \
	VPADDD   Y15, h, h;      \
	VPADDD   Y14, l, l

// FLUSHQ empties the four windows' int32 accumulators — high-byte sums in
// Y0, Y2, Y4, Y6, low-byte sums in Y1, Y3, Y5, Y7 — into Y8, the four
// windows' int64 Σqc, Y8 += 256·Σh + Σl. Two rounds of VPHADDD add each
// accumulator's lanes four and four and leave the four windows' sums side
// by side (low lanes in the low half, high lanes in the high half), still
// in int32: a chunk is at most 32 blocks, so four lanes together hold no
// more than one lane may (see splitQuery). The halves are then widened
// and added. The accumulators are left dirty.
#define FLUSHQ \
	VPHADDD      Y2, Y0, Y0;    \
	VPHADDD      Y6, Y4, Y4;    \
	VPHADDD      Y4, Y0, Y0;    \
	VPHADDD      Y3, Y1, Y1;    \
	VPHADDD      Y7, Y5, Y5;    \
	VPHADDD      Y5, Y1, Y1;    \
	VPMOVSXDQ    X0, Y14;       \
	VEXTRACTI128 $1, Y0, X15;   \
	VPMOVSXDQ    X15, Y15;      \
	VPADDQ       Y15, Y14, Y14; \
	VPSLLQ       $8, Y14, Y14;  \
	VPADDQ       Y14, Y8, Y8;   \
	VPMOVSXDQ    X1, Y14;       \
	VEXTRACTI128 $1, Y1, X15;   \
	VPMOVSXDQ    X15, Y15;      \
	VPADDQ       Y15, Y14, Y14; \
	VPADDQ       Y14, Y8, Y8

// STEPQ is a step routine (see stepQAVX2) after its argument loads
// (R12 = w, AX = a, BX = b, CX = n), for a query split into blocks of
// 2^shift counts: the sums; the dot in chunks of at most chunk blocks,
// BLOCK per block (the query's block against the four windows, DI moved
// past it; DI counts bytes into the windows, twice that into the query)
// and FLUSH per chunk; the n mod 2^shift leftover counts as one more
// block, the windows backed up so that it ends where they do; the
// finish, MOVE, and REPORT or the other group's step.
#define STEPQ(shift, chunk, BLOCK, FLUSH) \
stepq:                                         \
	MOVQ         CX, DX;                   \
	SHLQ         $4, DX;                   \
	ENDS(0, 0, R8, X0);                    \
	ENDS(8, 24, R9, X1);                   \
	ENDS(16, 48, R10, X2);                 \
	ENDS(24, 72, R11, X3);                 \
	VUNPCKLPD    X1, X0, X4;               \
	VUNPCKHPD    X1, X0, X5;               \
	VUNPCKLPD    X3, X2, X6;               \
	VUNPCKHPD    X3, X2, X7;               \
	VINSERTF128  $1, X6, Y4, Y4;           \
	VINSERTF128  $1, X7, Y5, Y5;           \
	VBROADCASTSD Walk_nf(R12), Y6;         \
	VMULPD       Y6, Y5, Y5;               \
	VMULPD       Y4, Y4, Y7;               \
	VSUBPD       Y7, Y5, Y5;               \
	VSQRTPD      Y5, Y5;                   \
	VBROADCASTSD Walk_rq(R12), Y7;         \
	VMULPD       Y5, Y7, Y5;               \
	VBROADCASTSD stepUnit<>(SB), Y7;       \
	VDIVPD       Y5, Y7, Y7;               \
	VXORPD       Y6, Y6, Y6;               \
	VCMPPD       $0x1E, Y6, Y5, Y6;        \
	VANDPD       Y6, Y7, Y7;               \
	VMOVUPD      Y7, group_spill(AX);      \
	VBROADCASTSD Walk_sq(R12), Y7;         \
	VMULPD       Y4, Y7, Y4;               \
	VMOVUPD      Y4, group_spill2(AX);     \
	MOVQ         Walk_qsplit(R12), SI;     \
	VPXOR        Y8, Y8, Y8;               \
	XORQ         DI, DI;                   \
	MOVQ         CX, R14;                  \
	SHRQ         $shift, R14;              \
	MOVQ         CX, R13;                  \
	ANDQ         $((1<<shift)-1), R13;     \
	JMP          moreq;                    \
chunkq:                                        \
	MOVQ         $chunk, DX;               \
	CMPQ         R14, DX;                  \
	CMOVQLT      R14, DX;                  \
	SUBQ         DX, R14;                  \
leftq:                                         \
	VPXOR        Y0, Y0, Y0;               \
	VPXOR        Y1, Y1, Y1;               \
	VPXOR        Y2, Y2, Y2;               \
	VPXOR        Y3, Y3, Y3;               \
	VPXOR        Y4, Y4, Y4;               \
	VPXOR        Y5, Y5, Y5;               \
	VPXOR        Y6, Y6, Y6;               \
	VPXOR        Y7, Y7, Y7;               \
blockq:                                        \
	BLOCK;                                 \
	DECQ         DX;                       \
	JNZ          blockq;                   \
	FLUSH;                                 \
moreq:                                         \
	TESTQ        R14, R14;                 \
	JNZ          chunkq;                   \
	TESTQ        R13, R13;                 \
	JZ           finishq;                  \
	SUBQ         $(1<<shift), R13;         \
	LEAQ         (R8)(R13*2), R8;          \
	LEAQ         (R9)(R13*2), R9;          \
	LEAQ         (R10)(R13*2), R10;        \
	LEAQ         (R11)(R13*2), R11;        \
	XORQ         R13, R13;                 \
	MOVQ         $1, DX;                   \
	JMP          leftq;                    \
finishq:                                       \
	VPBROADCASTQ stepMagic<>(SB), Y2;      \
	VPADDQ       Y2, Y8, Y0;               \
	VSUBPD       Y2, Y0, Y0;               \
	VBROADCASTSD Walk_nf(R12), Y1;         \
	VMULPD       Y1, Y0, Y0;               \
	VSUBPD       group_spill2(AX), Y0, Y0; \
	VMOVUPD      group_spill(AX), Y1;      \
	VMULPD       Y1, Y0, Y0;               \
	VXORPD       Y2, Y2, Y2;               \
	VCMPPD       $0x1E, Y2, Y1, Y3;        \
	VANDPD       group_live(AX), Y3, Y3;   \
	VANDPD       Y3, Y0, Y0;               \
	MOVE;                                  \
	TESTL        DI, DI;                   \
	JNZ          eventq;                   \
	TESTQ        BX, BX;                   \
	JZ           stepq;                    \
	XCHGQ        AX, BX;                   \
	JMP          stepq;                    \
eventq:                                        \
	REPORT

// BLOCK16 is stepQAVX2's block: the query's sixteen high and sixteen low
// bytes, then WINDOWQ for each window.
#define BLOCK16 \
	VMOVDQU (SI)(DI*2), Y12;   \
	VMOVDQU 32(SI)(DI*2), Y13; \
	WINDOWQ(R8, Y0, Y1);       \
	WINDOWQ(R9, Y2, Y3);       \
	WINDOWQ(R10, Y4, Y5);      \
	WINDOWQ(R11, Y6, Y7);      \
	ADDQ    $32, DI

// func stepQAVX2(w *Walk, a, b *group) (which int, events uint32)
//
// Walk's step sequence (step.go, stepq.go) for the four lanes of a group
// at once, looping here — group a, then b, then a … or a alone when b is
// nil — until a step has an event. The next group's dot follows this
// group's finish in program order and needs nothing from it: the core
// multiplies for one group while the other's division and convert
// resolve. One step:
//
//   - sums: the four windows' Σc and Σc², D_c = n·Σc² − Σc·Σc, its
//     root, den = √D_q·√D_c, its reciprocal (+0 unless den > 0) and
//     Σq·Σc, the last two spilled to the group — nothing here depends on
//     the dot, so the divider works through the root and the reciprocal
//     while the dot runs, and what follows the dot has no division but
//     the skip rule's;
//   - dot: per block of sixteen counts one load of the query's high and
//     low bytes and, per window, one load of its counts, two VPMADDWD
//     and two VPADDD into int32 lanes, flushed into one register of four
//     int64 Σqc every 32 blocks at most; the n mod 16 leftover counts
//     are one more block read against the window's last sixteen (see
//     splitQuery), so exactly the window is read and there is no scalar
//     tail. Σqc becomes float64 by the 2⁵²+2⁵¹ trick — add the
//     constant's bit pattern as an integer, subtract it as a float,
//     exact for |Σqc| < 2⁵¹, and n ≤ 2²⁰ keeps it below 2⁵⁰;
//   - finish: A = n·Σqc − Σq·Σc, ω = A·(1/den) where den > 0, then
//     MOVE.
//
// Every integer the routine sums is summed exactly, so the only way it
// could differ from stepQPortable is in the float operations, and those
// are the same ones in the same order.
TEXT ·stepQAVX2(SB), NOSPLIT, $0-36
	MOVQ w+0(FP), R12
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ Walk_qc+8(R12), CX // n
	STEPQ(4, 32, BLOCK16, FLUSHQ)

// BLOCK32 is stepQAVX512's block: the query's 32 high and 32 low bytes,
// then per window its 32 counts and two VPDPWSSD (one pair sum per lane).
#define BLOCK32 \
	VMOVDQU64 (SI)(DI*2), Z12;   \
	VMOVDQU64 64(SI)(DI*2), Z13; \
	VMOVDQU64 (R8)(DI*1), Z14;   \
	VPDPWSSD  Z14, Z12, Z0;      \
	VPDPWSSD  Z14, Z13, Z1;      \
	VMOVDQU64 (R9)(DI*1), Z14;   \
	VPDPWSSD  Z14, Z12, Z2;      \
	VPDPWSSD  Z14, Z13, Z3;      \
	VMOVDQU64 (R10)(DI*1), Z14;  \
	VPDPWSSD  Z14, Z12, Z4;      \
	VPDPWSSD  Z14, Z13, Z5;      \
	VMOVDQU64 (R11)(DI*1), Z14;  \
	VPDPWSSD  Z14, Z12, Z6;      \
	VPDPWSSD  Z14, Z13, Z7;      \
	ADDQ      $64, DI

// FOLD512 adds the upper half of each accumulator Z0–Z7 into its lower
// half, FLUSHQ's Y register, and flushes.
#define FOLD512 \
	VEXTRACTI64X4 $1, Z0, Y14; VPADDD Y14, Y0, Y0; \
	VEXTRACTI64X4 $1, Z1, Y14; VPADDD Y14, Y1, Y1; \
	VEXTRACTI64X4 $1, Z2, Y14; VPADDD Y14, Y2, Y2; \
	VEXTRACTI64X4 $1, Z3, Y14; VPADDD Y14, Y3, Y3; \
	VEXTRACTI64X4 $1, Z4, Y14; VPADDD Y14, Y4, Y4; \
	VEXTRACTI64X4 $1, Z5, Y14; VPADDD Y14, Y5, Y5; \
	VEXTRACTI64X4 $1, Z6, Y14; VPADDD Y14, Y6, Y6; \
	VEXTRACTI64X4 $1, Z7, Y14; VPADDD Y14, Y7, Y7; \
	FLUSHQ

// func stepQAVX512(w *Walk, a, b *group) (which int, events uint32)
//
// stepQAVX2 with the dot on AVX-512 VNNI over 32-count blocks. A chunk
// is at most 16 blocks: an int32 lane holds 16 pair sums, FOLD512 makes
// that 32 and FLUSHQ's VPHADDDs 128 — splitQuery's bound, where
// stepQAVX2's 32-block chunks stand too. (STEPQ's VEX VPXORs clear the
// accumulators' upper ZMM halves.)
TEXT ·stepQAVX512(SB), NOSPLIT, $0-36
	MOVQ w+0(FP), R12
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ Walk_qc+8(R12), CX // n
	STEPQ(5, 16, BLOCK32, FOLD512)
