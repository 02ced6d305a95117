#include "textflag.h"
#include "go_asm.h"
#include "dot4_amd64.h"

DATA stepEps<>+0(SB)/8, $0x3d719799812dea11 // 1e-12
GLOBL stepEps<>(SB), RODATA|NOPTR, $8
DATA stepHalf<>+0(SB)/8, $0x3fe0000000000000 // 0.5
GLOBL stepHalf<>(SB), RODATA|NOPTR, $8
DATA stepAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL stepAbs<>(SB), RODATA|NOPTR, $8
DATA stepOne<>+0(SB)/4, $1
GLOBL stepOne<>(SB), RODATA|NOPTR, $4

// ENDS readies one lane of the group at AX for a step: it leaves the
// address of the lane's window x[β:] in xw and the window's
// {Σ, Σ²} = sums[β+n] − sums[β] in xs. k8 and k24 are the lane's byte
// offsets into arrays of words and of slice headers; DX holds 16·n.
#define ENDS(k8, k24, xw, xs) \
	MOVQ    group_beta+k8(AX), R13;  \
	MOVQ    group_x+k24(AX), xw;     \
	LEAQ    (xw)(R13*8), xw;         \
	MOVQ    group_sums+k24(AX), DI;  \
	SHLQ    $4, R13;                 \
	ADDQ    R13, DI;                 \
	VMOVUPD (DI)(DX*1), xs;          \
	VSUBPD  (DI), xs, xs

// func stepAVX2(w *Walk, a, b *group) (which int, events uint32)
//
// Walk's step sequence (step.go) for the four lanes of a group at once,
// looping here — group a, then b, then a … or a alone when b is nil —
// until a step has an event. One step is three parts:
//
//   - norms: the four windows' sums, v, √, den = scale·√v, spilled to
//     the group — nothing here depends on the dot, so the divider works
//     through it while the dot runs;
//   - dot: dot4AVX2's block loop, reduction and tail, which needs all
//     sixteen registers;
//   - finish: ω, the candidate mask, envelope, advance, β, decay, the
//     done mask — four lanes per instruction.
//
// Every select is a compare and a mask, or a VMAXPD whose operand order
// is the portable comparison's: VMAXPD returns its second source unless
// the first is greater, so (a, env) keeps env and (env, floor) gives
// the floor — never a NaN the portable route would not have. The clamp
// of v is compare + and-not because VMAXPD would turn a NaN into 0 and
// −0 into +0. The convert is the 32-bit one: the route runs only for a
// rule whose table covers every advance, so SkipNum/e + 0.5 < 4097.
//
// The next group's dot follows this group's finish in program order and
// needs nothing from it: the core multiplies for one group while the
// other's divisions and convert resolve.
TEXT ·stepAVX2(SB), NOSPLIT, $0-36
	MOVQ w+0(FP), R12
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ Walk_q+8(R12), CX // n

step:
	MOVQ CX, DX
	SHLQ $4, DX
	ENDS(0, 0, R8, X0)
	ENDS(8, 24, R9, X1)
	ENDS(16, 48, R10, X2)
	ENDS(24, 72, R11, X3)
	VUNPCKLPD    X1, X0, X4
	VUNPCKHPD    X1, X0, X5
	VUNPCKLPD    X3, X2, X6
	VUNPCKHPD    X3, X2, X7
	VINSERTF128  $1, X6, Y4, Y4        // Σ of the four windows
	VINSERTF128  $1, X7, Y5, Y5        // Σ²
	VBROADCASTSD Walk_nf(R12), Y6
	VMULPD       Y4, Y4, Y4
	VDIVPD       Y6, Y4, Y4            // Σ·Σ/n
	VSUBPD       Y4, Y5, Y5            // v
	VXORPD       Y7, Y7, Y7
	VCMPPD       $0x11, Y7, Y5, Y8     // v < 0, ordered
	VANDNPD      Y5, Y8, Y5
	VSQRTPD      Y5, Y5
	VMULPD       group_scale(AX), Y5, Y5
	VMOVUPD      Y5, group_spill(AX)   // den

	MOVQ   Walk_q(R12), SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   CX, DX
	SHRQ   $4, DX
	JZ     reduce

block:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VMOVUPD 64(SI), Y10
	VMOVUPD 96(SI), Y11
	WINDOW4(R8, Y0, Y1)
	WINDOW4(R9, Y2, Y3)
	WINDOW4(R10, Y4, Y5)
	WINDOW4(R11, Y6, Y7)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, R11
	DECQ DX
	JNZ  block

reduce:
	REDUCE4(Y0, Y1, X0, X1)
	REDUCE4(Y2, Y3, X2, X3)
	REDUCE4(Y4, Y5, X4, X5)
	REDUCE4(Y6, Y7, X6, X7)

	// The four sequential tails from +0, added even when empty, as in
	// dot4AVX2.
	VXORPD X1, X1, X1
	VXORPD X3, X3, X3
	VXORPD X5, X5, X5
	VXORPD X7, X7, X7
	MOVQ   CX, DX
	ANDQ   $15, DX
	JZ     finish

tail:
	VMOVSD (SI), X8
	VMULSD (R8), X8, X12
	VMULSD (R9), X8, X13
	VMULSD (R10), X8, X14
	VMULSD (R11), X8, X15
	VADDSD X12, X1, X1
	VADDSD X13, X3, X3
	VADDSD X14, X5, X5
	VADDSD X15, X7, X7
	ADDQ   $8, SI
	ADDQ   $8, R8
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   DX
	JNZ    tail

finish:
	VADDSD      X1, X0, X0
	VADDSD      X3, X2, X2
	VADDSD      X5, X4, X4
	VADDSD      X7, X6, X6
	VUNPCKLPD   X2, X0, X0
	VUNPCKLPD   X6, X4, X4
	VINSERTF128 $1, X4, Y0, Y0         // the four dots

	VMULPD       group_scale(AX), Y0, Y0
	VMOVUPD      group_spill(AX), Y1
	VDIVPD       Y1, Y0, Y0            // scale·dot/den
	VBROADCASTSD stepEps<>(SB), Y2
	VCMPPD       $0x1D, Y2, Y1, Y3     // den ≥ 1e-12, ordered
	VANDPD       group_live(AX), Y3, Y3
	VANDPD       Y3, Y0, Y0            // ω, or +0
	VMOVUPD      Y0, group_omega(AX)
	VBROADCASTSD Walk_rule+SkipRule_Delta(R12), Y2
	VCMPPD       $0x1E, Y2, Y0, Y3     // ω > δ, ordered
	VMOVMSKPD    Y3, R13
	VBROADCASTSD stepAbs<>(SB), Y2
	VANDPD       Y2, Y0, Y4            // a = |ω|
	VCMPPD       $7, Y4, Y4, Y2        // a is not NaN
	VANDPD       Y2, Y4, Y4
	VMOVUPD      group_env(AX), Y5
	VMAXPD       Y5, Y4, Y5            // a if a > env, else env
	VBROADCASTSD Walk_rule+SkipRule_Floor(R12), Y6
	VMAXPD       Y6, Y5, Y6            // env if env > floor, else floor
	VBROADCASTSD Walk_rule+SkipRule_SkipNum(R12), Y7
	VDIVPD       Y6, Y7, Y7
	VBROADCASTSD stepHalf<>(SB), Y2
	VADDPD       Y2, Y7, Y7
	VCVTTPD2DQY  Y7, X7
	VPBROADCASTD stepOne<>(SB), X2
	VPMAXSD      X2, X7, X7
	VPMOVSXDQ    X7, Y7
	VPAND        group_live(AX), Y7, Y7 // adv; 0 for a masked lane
	VMOVDQU      group_beta(AX), Y8
	VMOVDQU      Y8, group_at(AX)
	VPADDQ       Y7, Y8, Y8
	VMOVDQU      Y8, group_beta(AX)
	MOVQ         Walk_rule+SkipRule_Decay(R12), DI
	VPCMPEQD     Y9, Y9, Y9
	VGATHERQPD   Y9, (DI)(Y7*8), Y10
	VMULPD       Y10, Y5, Y5
	VMOVUPD      Y5, group_env(AX)
	VPCMPGTQ     group_maxOff(AX), Y8, Y11 // β > maxOff
	VMOVMSKPD    Y11, DI
	SHLQ         $4, DI
	ORQ          R13, DI
	ANDL         group_liveBits(AX), DI
	MOVQ         group_nlive(AX), DX
	ADDQ         DX, group_evals(AX)
	TESTL        DI, DI
	JNZ          event
	TESTQ        BX, BX
	JZ           step
	XCHGQ        AX, BX
	JMP          step

event:
	XORL DX, DX
	CMPQ AX, a+8(FP)
	SETNE DL
	MOVQ DX, which+24(FP)
	MOVL DI, events+32(FP)
	VZEROUPPER
	RET
