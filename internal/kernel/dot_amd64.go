package kernel

// The AVX2 routes of Dot, DotQ, Widen and the walk's step, and the
// init-time check that selects them. The repository has no
// golang.org/x/sys, so CPUID and XGETBV are issued from dot_amd64.s.

// dotAVX2 computes Dot's defined order with 256-bit VMULPD/VADDPD (no
// FMA). len(b) must equal len(a); it reads nothing past either.
//
//go:noescape
func dotAVX2(a, b []float64) float64

// widenAVX2 is widenPortable over n counts, n a multiple of 4: it reads
// the running totals at sums[0] and writes sums[1:n+1].
//
//go:noescape
func widenAVX2(sums *[2]float64, c *int16, n int)

// widenVector runs the whole fours of c through the vector routine and
// the last len(c) mod 4 counts through the portable loop, which picks
// the running totals up where the routine left them.
func widenVector(sums [][2]float64, c []int16) {
	n4 := len(c) &^ 3
	if n4 > 0 {
		widenAVX2(&sums[0], &c[0], n4)
	}
	widenPortable(sums[n4:], c[n4:])
}

// dotqAVX2 is dotqPortable over blocks·16 counts (dotq_amd64.s).
//
//go:noescape
func dotqAVX2(a, b *int16, blocks int) int64

// dotqVector runs the whole sixteens of a and b through the vector
// routine and the rest through the portable loop: the sum has no order,
// so where it is cut does not matter.
func dotqVector(a, b []int16) int64 {
	n16 := len(a) &^ (splitBlock - 1)
	var s int64
	if n16 > 0 {
		s = dotqAVX2(&a[0], &b[0], n16/splitBlock)
	}
	return s + dotqPortable(a[n16:], b[n16:])
}

// stepQAVX2 is stepQPortable for a walk whose rule is tabled and whose
// query fills at least one block (step_amd64.s): same fields, same bits,
// after every call. It reads the lanes' passes through raw pointers and
// checks nothing — Walk.Run has.
//
//go:noescape
func stepQAVX2(w *Walk, a, b *group) (which int, events uint32)

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. It faults unless CPUID
// leaf 1 reports OSXSAVE.
func xgetbv() (eax, edx uint32)

const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: the OS uses XSAVE, so XGETBV works
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 subleaf 0 EBX
	xcr0SSE      = 1 << 1  // XCR0: the OS saves XMM state
	xcr0AVX      = 1 << 2  // XCR0: the OS saves the upper YMM halves
)

// avx2Usable is the route decision as a pure function of the words the
// CPU reports: the highest basic CPUID leaf, leaf 1 ECX, leaf 7 EBX and
// XCR0's low half (0 when OSXSAVE is clear and it cannot be read). The
// instruction set alone is not enough — an OS that does not save YMM
// state across context switches would corrupt the accumulators.
func avx2Usable(maxLeaf, leaf1ECX, leaf7EBX, xcr0 uint32) bool {
	const os, ymm = cpuidOSXSAVE | cpuidAVX, xcr0SSE | xcr0AVX
	return maxLeaf >= 7 && leaf1ECX&os == os && xcr0&ymm == ymm && leaf7EBX&cpuidAVX2 != 0
}

// detectAVX2 reads this machine's words and applies avx2Usable.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, leaf1ECX, _ := cpuid(1, 0)
	var leaf7EBX, xcr0 uint32
	if maxLeaf >= 7 {
		_, leaf7EBX, _, _ = cpuid(7, 0)
	}
	if leaf1ECX&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return avx2Usable(maxLeaf, leaf1ECX, leaf7EBX, xcr0)
}

func init() {
	if detectAVX2() {
		dot, dotq, widen, stepQ = dotAVX2, dotqVector, widenVector, stepQAVX2
	}
}
