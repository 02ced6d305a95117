package kernel

import (
	"reflect"
	"slices"
	"testing"
)

// platformRoutes are the vector routes amd64 has, whether or not this
// CPU runs them.
func platformRoutes() []*route { return []*route{&avx2, &avx512vnni} }

// TestAVX2UsableDecision drives the route decision with synthetic
// CPUID/XCR0 words: the vector route needs leaf 7 to exist, AVX2 in it,
// AVX and OSXSAVE in leaf 1, and an OS that saves both XMM and YMM
// state. Anything less runs the portable loop.
func TestAVX2UsableDecision(t *testing.T) {
	const leaf1, leaf7, xcr0 = cpuidOSXSAVE | cpuidAVX, cpuidAVX2, xcr0SSE | xcr0AVX
	for _, tc := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      bool
	}{
		{"haswell or later, OS saves YMM", 13, leaf1 | 1<<12, leaf7 | 1<<3, xcr0 | 1, true},
		{"minimal words", 7, leaf1, leaf7, xcr0, true},
		{"no leaf 7 (pre-Haswell)", 6, leaf1, leaf7, xcr0, false},
		{"AVX without AVX2 (Sandy Bridge)", 13, leaf1, 0, xcr0, false},
		{"AVX2 bit but no AVX", 13, cpuidOSXSAVE, leaf7, xcr0, false},
		{"OS does not use XSAVE", 13, cpuidAVX, leaf7, 0, false},
		{"OS saves XMM only", 13, leaf1, leaf7, xcr0SSE, false},
		{"OS saves YMM halves only", 13, leaf1, leaf7, xcr0AVX, false},
		{"all clear", 0, 0, 0, 0, false},
	} {
		if got := avx2Usable(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: avx2Usable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestVNNIUsableDecision drives the AVX-512 VNNI decision with synthetic
// words: it needs everything the AVX2 route does, AVX-512 F, BW and VL,
// AVX512_VNNI, and an OS that saves the opmask and every ZMM half. Each
// row that falls short would run the AVX2 route instead.
func TestVNNIUsableDecision(t *testing.T) {
	const leaf1, xcr0 = cpuidOSXSAVE | cpuidAVX, xcr0SSE | xcr0AVX
	const leaf7, bw, vl = cpuidAVX2 | cpuidAVX512, 1 << 30, 1 << 31
	const leaf7c, zmm = cpuidVNNI, xcr0 | xcr0ZMM
	for _, tc := range []struct {
		name                            string
		maxLeaf, ecx1, ebx7, ecx7, xcr0 uint32
		want                            bool
	}{
		{"server part with AVX-512 VNNI", 0x1f, leaf1 | 1<<12, leaf7 | 1<<17 | 1<<28, leaf7c | 1<<1, zmm | 1, true},
		{"minimal words", 7, leaf1, leaf7, leaf7c, zmm, true},
		{"AVX-512F without VL", 13, leaf1, leaf7 &^ vl, leaf7c, zmm, false},
		{"VNNI without BW", 13, leaf1, leaf7 &^ bw, leaf7c, zmm, false},
		{"AVX-512 without VNNI (Skylake-SP)", 13, leaf1, leaf7, 0, zmm, false},
		{"OS saves YMM but not opmask or ZMM", 13, leaf1, leaf7, leaf7c, xcr0, false},
		{"OS saves ZMM but not the opmask", 13, leaf1, leaf7, leaf7c, xcr0 | 6<<5, false},
		{"OS saves the opmask but not ZMM16–31", 13, leaf1, leaf7, leaf7c, xcr0 | 3<<5, false},
		{"AVX-VNNI only (client part, leaf 7.1 EAX bit 4)", 13, leaf1, cpuidAVX2, 0, xcr0, false},
		{"AVX-512 words but no AVX2", 13, leaf1, leaf7 &^ cpuidAVX2, leaf7c, zmm, false},
		{"no leaf 7", 6, leaf1, leaf7, leaf7c, zmm, false},
		{"all clear", 0, 0, 0, 0, 0, false},
	} {
		if got := vnniUsable(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.ecx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: vnniUsable = %v, want %v", tc.name, got, tc.want)
		}
		// Every row that is not AVX-512 VNNI but has the AVX2 words stays
		// on the AVX2 route.
		if !tc.want && tc.ebx7&cpuidAVX2 != 0 && tc.maxLeaf >= 7 && !avx2Usable(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.xcr0) {
			t.Errorf("%s: avx2Usable = false", tc.name)
		}
	}
}

// TestRouteFollowsDetector: init installed the AVX2 routines of Dot,
// DotQ and Widen and the step's AVX2 route exactly when this machine's
// own words say it may, and the AVX-512 VNNI route beside it exactly
// when those words say that — so the == sweeps compared every route this
// machine has against portable, and the log says which.
func TestRouteFollowsDetector(t *testing.T) {
	maxLeaf, ecx1, ebx7, ecx7, xcr0 := cpuWords()
	usable := avx2Usable(maxLeaf, ecx1, ebx7, xcr0)
	for _, route := range []struct {
		name             string
		selected, vector any
	}{{"Dot", dot, dotAVX2}, {"DotQ", dotq, dotqVector}, {"Widen", widen, widenVector}} {
		vector := reflect.ValueOf(route.selected).Pointer() == reflect.ValueOf(route.vector).Pointer()
		if vector != usable {
			t.Fatalf("%s: vector route installed = %v, detector says usable = %v", route.name, vector, usable)
		}
	}
	var want []*route
	if usable {
		want = append(want, &avx2)
	}
	if vnniUsable(maxLeaf, ecx1, ebx7, ecx7, xcr0) {
		want = append(want, &avx512vnni)
	}
	if !slices.Equal(vector, want) {
		t.Fatalf("the step's vector routes are %v, the detector says %v", vector, want)
	}
	t.Logf("walk step routes on this machine: %v", Routes())
}
