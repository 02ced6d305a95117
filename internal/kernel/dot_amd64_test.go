package kernel

import (
	"reflect"
	"testing"
)

func init() { spillIsDen = detectAVX2() }

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

// TestRouteFollowsDetector: init installed the four vector routines
// together, exactly when this machine's own words say it may — so the
// == sweeps in kernel_test.go compared AVX2 against portable wherever
// that is possible, and say so in the log.
func TestRouteFollowsDetector(t *testing.T) {
	usable := detectAVX2()
	for _, route := range []struct {
		name             string
		selected, vector any
	}{{"Dot", dot, dotAVX2}, {"DotQ", dotq, dotqVector}, {"Widen", widen, widenVector}, {"stepQ", stepQ, stepQAVX2}} {
		vector := reflect.ValueOf(route.selected).Pointer() == reflect.ValueOf(route.vector).Pointer()
		if vector != usable {
			t.Fatalf("%s: vector route installed = %v, detector says usable = %v", route.name, vector, usable)
		}
	}
	t.Logf("Dot, DotQ, Widen and the walk's step run the AVX2 routes: %v", usable)
}
