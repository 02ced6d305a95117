#include "textflag.h"

DATA dotqLow<>+0(SB)/2, $0x00ff
GLOBL dotqLow<>(SB), RODATA|NOPTR, $2

// func dotqAVX2(a, b *int16, blocks int) int64
//
// Σ a[i]·b[i] over blocks·16 counts, exactly. VPMADDWD's int32 pair sums
// overflow at the rails and leave no room to accumulate, so a is split as
// the walk's query is (splitQuery), here on the fly: a = 256·h + l with
// h = a>>8 and l = a&255, two VPMADDWD against b and two VPADDD per
// block into int32 lanes that 128 blocks cannot overflow, flushed to
// four int64 partial sums, tot += 256·h + l, every 128 blocks at most.
TEXT ·dotqAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ blocks+16(FP), CX
	VPBROADCASTW dotqLow<>(SB), Y6
	VPXOR Y0, Y0, Y0 // Σ h·b, eight int32
	VPXOR Y1, Y1, Y1 // Σ l·b
	VPXOR Y2, Y2, Y2 // the four int64 partial sums
	JMP   more

chunk:
	MOVQ  $128, DX
	CMPQ  CX, DX
	CMOVQLT CX, DX
	SUBQ  DX, CX

block:
	VMOVDQU  (SI), Y3
	VMOVDQU  (DI), Y5
	VPSRAW   $8, Y3, Y4
	VPAND    Y6, Y3, Y3
	VPMADDWD Y5, Y4, Y4
	VPMADDWD Y5, Y3, Y3
	VPADDD   Y4, Y0, Y0
	VPADDD   Y3, Y1, Y1
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  block
	VPMOVSXDQ    X0, Y3
	VEXTRACTI128 $1, Y0, X4
	VPMOVSXDQ    X4, Y4
	VPADDQ       Y4, Y3, Y3
	VPSLLQ       $8, Y3, Y3
	VPADDQ       Y3, Y2, Y2
	VPMOVSXDQ    X1, Y3
	VEXTRACTI128 $1, Y1, X4
	VPMOVSXDQ    X4, Y4
	VPADDQ       Y4, Y3, Y3
	VPADDQ       Y3, Y2, Y2
	VPXOR        Y0, Y0, Y0
	VPXOR        Y1, Y1, Y1

more:
	TESTQ CX, CX
	JNZ   chunk
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSRLDQ      $8, X2, X3
	VPADDQ       X3, X2, X2
	VMOVQ        X2, AX
	MOVQ         AX, ret+24(FP)
	VZEROUPPER
	RET
