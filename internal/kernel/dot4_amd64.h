// The two building blocks dot4AVX2 (dot_amd64.s) and stepAVX2
// (step_amd64.s) share, so that both compute a window's dot by the same
// instructions in the same order.

// WINDOW4 is dotAVX2's block16 body for one window of dot4AVX2: the
// query block sits in Y8…Y11, x points at the window's block, lo and hi
// are the window's two accumulators. Same instructions, same operand
// order as dotAVX2, so the same bits.
#define WINDOW4(x, lo, hi) \
	VMULPD (x), Y8, Y12;    \
	VMULPD 32(x), Y9, Y13;  \
	VMULPD 64(x), Y10, Y14; \
	VMULPD 96(x), Y11, Y15; \
	VADDPD Y14, Y12, Y12;   \
	VADDPD Y15, Y13, Y13;   \
	VADDPD Y12, lo, lo;     \
	VADDPD Y13, hi, hi

// REDUCE4 is dotAVX2's reduction tree for one window: the sum of the
// eight lanes is left in the low element of xlo.
#define REDUCE4(lo, hi, xlo, xhi) \
	VADDPD       hi, lo, lo;    \
	VEXTRACTF128 $1, lo, xhi;   \
	VADDPD       xhi, xlo, xlo; \
	VUNPCKHPD    xlo, xlo, xhi; \
	VADDSD       xhi, xlo, xlo
