#include "textflag.h"

// func dotAVX2(a, b []float64) float64
//
// Dot's defined summation order (see dot.go) on 256-bit registers:
// Y0 holds lanes s0…s3, Y1 lanes s4…s7. Each 16-element block is four
// VMULPD, two pair-adding VADDPD and one VADDPD into each accumulator,
// so an accumulator's dependency chain carries one add per eight loads.
// Loads are unaligned (VMOVUPD, VEX memory operands): any 8-byte
// aligned slice is accepted. No FMA instruction appears: every product
// and every sum is rounded on its own, as in dotPortable.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   reduce

block16:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMOVUPD 64(SI), Y4
	VMOVUPD 96(SI), Y5
	VMULPD  (DI), Y2, Y2
	VMULPD  32(DI), Y3, Y3
	VMULPD  64(DI), Y4, Y4
	VMULPD  96(DI), Y5, Y5
	VADDPD  Y4, Y2, Y2 // a[i+j]·b[i+j] + a[i+8+j]·b[i+8+j], j = 0…3
	VADDPD  Y5, Y3, Y3 // the same, j = 4…7
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    DX
	JNZ     block16

reduce:
	VADDPD       Y1, Y0, Y0  // (s0+s4, s1+s5, s2+s6, s3+s7)
	VEXTRACTF128 $1, Y0, X1  // (s2+s6, s3+s7)
	VADDPD       X1, X0, X0  // ((s0+s4)+(s2+s6), (s1+s5)+(s3+s7))
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER

	// Sequential tail over the n mod 16 trailing elements, from +0; it
	// is added even when empty so that −0 sums come out +0 on both
	// routes.
	VXORPD X2, X2, X2
	ANDQ   $15, CX
	JZ     done

tail:
	VMOVSD (SI), X3
	VMULSD (DI), X3, X3
	VADDSD X3, X2, X2
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    tail

done:
	VADDSD X2, X0, X0
	VMOVSD X0, ret+48(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
