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

// func widenAVX2(sums *[2]float64, c *int16, n int)
//
// Four counts per iteration. With pairs Pi = (ci, ci²) and the running
// totals run = sums[i], the four outputs are R0 = run+P0, R1 = R0+P1,
// R2 = R1+P2, R3 = R2+P3. Y5 = (P0 | P2) and Y6 = (P1 | P3) come from
// two unpacks; W = Y5+Y6 = (P0+P1 | P2+P3); the next iteration's totals
// RUN' = RUN + (W + swap W) are the only loop-carried value, one add
// deep; (R1 | R3) is RUN+W in the low half and RUN' in the high half,
// and (R0 | R2) = (R1 | R3) − Y6. It is float64 arithmetic on integers
// that MaxWidenLen keeps below 2⁵³: every product, sum and difference
// is exact, so there is no order to get wrong and the portable loop's
// integer totals, converted, are the same values.
TEXT ·widenAVX2(SB), NOSPLIT, $0-24
	MOVQ sums+0(FP), BX
	MOVQ c+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   widened
	VBROADCASTF128 (BX), Y0          // RUN = (run | run)
	ADDQ $16, BX

widen4:
	VPMOVSXWD  (SI), X2              // c0…c3 as int32
	VCVTDQ2PD  X2, Y3                // float64(c0…c3)
	VMULPD     Y3, Y3, Y4            // c0²…c3²
	VUNPCKLPD  Y4, Y3, Y5            // (P0 | P2)
	VUNPCKHPD  Y4, Y3, Y6            // (P1 | P3)
	VADDPD     Y6, Y5, Y7            // W
	VPERM2F128 $0x01, Y7, Y7, Y8     // swap W
	VADDPD     Y8, Y7, Y8            // (P0+P1+P2+P3 | the same)
	VADDPD     Y7, Y0, Y9            // RUN + W = (R1 | …)
	VADDPD     Y8, Y0, Y0            // RUN' = (R3 | R3)
	VBLENDPD   $0x0C, Y0, Y9, Y9     // (R1 | R3)
	VSUBPD     Y6, Y9, Y10           // (R0 | R2)
	VMOVUPD      X10, (BX)
	VMOVUPD      X9, 16(BX)
	VEXTRACTF128 $1, Y10, 32(BX)
	VEXTRACTF128 $1, Y9, 48(BX)
	ADDQ $8, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  widen4
	VZEROUPPER

widened:
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
