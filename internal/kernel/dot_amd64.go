package kernel

// The AVX2 routes of Dot, DotQ, Widen and the walk's step, the step's
// AVX-512 VNNI route, and the init-time checks that select them (CPUID
// and XGETBV are issued from dot_amd64.s: there is no golang.org/x/sys).

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
	n16 := len(a) &^ 15
	var s int64
	if n16 > 0 {
		s = dotqAVX2(&a[0], &b[0], n16/16)
	}
	return s + dotqPortable(a[n16:], b[n16:])
}

// stepQAVX2 and stepQAVX512 are stepQPortable for a walk whose rule is
// tabled and whose query fills at least one of the routine's blocks —
// sixteen counts for VPMADDWD, 32 for VPDPWSSD — split at that width
// (step_amd64.s): same fields, same bits, after every call. They read
// the lanes' passes through raw pointers and check nothing — Walk.Run
// has.
//
//go:noescape
func stepQAVX2(w *Walk, a, b *group) (which int, events uint32)

//go:noescape
func stepQAVX512(w *Walk, a, b *group) (which int, events uint32)

var (
	avx2       = route{name: "avx2", block: 16, step: stepQAVX2}
	avx512vnni = route{name: "avx512vnni", block: 32, step: stepQAVX512}
)

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. It faults unless CPUID
// leaf 1 reports OSXSAVE.
func xgetbv() (eax, edx uint32)

const (
	cpuidOSXSAVE = 1 << 27               // leaf 1 ECX: the OS uses XSAVE, so XGETBV works
	cpuidAVX     = 1 << 28               // leaf 1 ECX
	cpuidAVX2    = 1 << 5                // leaf 7 subleaf 0 EBX
	cpuidAVX512  = 1<<16 | 1<<30 | 1<<31 // leaf 7 EBX: AVX-512 F, BW and VL
	cpuidVNNI    = 1 << 11               // leaf 7 subleaf 0 ECX: AVX512_VNNI
	xcr0SSE      = 1 << 1                // XCR0: the OS saves XMM state
	xcr0AVX      = 1 << 2                // XCR0: the OS saves the upper YMM halves
	xcr0ZMM      = 7 << 5                // XCR0: opmask, upper ZMM0–15 halves, ZMM16–31
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

// vnniUsable is the AVX-512 VNNI route's decision from the same words
// and leaf 7 ECX: everything avx2Usable asks (the routine's prologue and
// tail are the AVX2 one's), AVX-512 F, BW, VL and VNNI, and an OS that
// saves the opmask and the whole of every ZMM register. AVX-VNNI (the
// VEX form on client parts, leaf 7 subleaf 1) is not AVX512_VNNI.
func vnniUsable(maxLeaf, leaf1ECX, leaf7EBX, leaf7ECX, xcr0 uint32) bool {
	return avx2Usable(maxLeaf, leaf1ECX, leaf7EBX, xcr0) && leaf7EBX&cpuidAVX512 == cpuidAVX512 &&
		leaf7ECX&cpuidVNNI != 0 && xcr0&xcr0ZMM == xcr0ZMM
}

// cpuWords reads the words the two decisions take from this machine.
func cpuWords() (maxLeaf, leaf1ECX, leaf7EBX, leaf7ECX, xcr0 uint32) {
	maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, leaf1ECX, _ = cpuid(1, 0)
	if maxLeaf >= 7 {
		_, leaf7EBX, leaf7ECX, _ = cpuid(7, 0)
	}
	if leaf1ECX&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return maxLeaf, leaf1ECX, leaf7EBX, leaf7ECX, xcr0
}

func init() {
	maxLeaf, leaf1ECX, leaf7EBX, leaf7ECX, xcr0 := cpuWords()
	if avx2Usable(maxLeaf, leaf1ECX, leaf7EBX, xcr0) {
		dot, dotq, widen = dotAVX2, dotqVector, widenVector
		vector = append(vector, &avx2)
	}
	if vnniUsable(maxLeaf, leaf1ECX, leaf7EBX, leaf7ECX, xcr0) {
		vector = append(vector, &avx512vnni)
	}
}
