// Package kernel is the correlation kernel under the cloud search: the
// innermost arithmetic of the whole system. The paper's cloud tier is
// one operation repeated billions of times — the normalized
// cross-correlation ω of a query window against every visited offset of
// every stored signal-set — and this package is that operation, over the
// one form a record is stored in, int16 counts:
//
//   - Walk (step.go), the whole step of the scan that walks signal-sets
//     in lockstep — window sums, the dots, ω, the |ω| envelope and the
//     skip, in one defined sequence of operations for four lanes at
//     once;
//   - DotQ, an exact integer dot (no summation order, so no route can
//     change a bit), and Widen, the exact running Σc and Σc² of a pass.
//
// Three things here have no caller in the serving tree and stay until
// the benchmark harness's probes of them go (ROADMAP item 1): Dot, the
// float64 dot with one defined summation order; DotQF; and Engine and
// Profiler (engine.go), the FFT numerator profile the exhaustive
// baseline once ran on — the baseline is Walk under a unit-advance rule.
package kernel

// dot and widen are the routes Dot and Widen run — and dotq (dotq.go)
// that of DotQ — chosen once before main: the portable loops everywhere,
// replaced together in dot_amd64.go's init by the AVX2 routines when the
// CPU and the OS support them (a walk's step has routes of its own, see
// route in step.go). Each pair computes the same bits, so the choice is
// invisible above this package.
var (
	dot   = dotPortable
	widen = widenPortable
)

// Dot returns Σ a[i]·b[i] over len(a) elements (len(b) must be at
// least len(a)) in ONE defined summation order, the same on every
// route and every architecture:
//
//   - Lanes. Eight sub-sums s0…s7 start at +0. Each full block of 16
//     elements at index i adds to lane j (0 ≤ j < 8) the pair sum
//     a[i+j]·b[i+j] + a[i+8+j]·b[i+8+j]: every product is rounded to
//     float64, the two are added and rounded, then the pair joins the
//     lane. No multiply is ever fused with an add.
//   - Tail. The n mod 16 trailing elements accumulate sequentially
//     into a ninth sum t, also from +0.
//   - Reduction tree. ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)), then + t.
//
// The order is what a vector unit executes naturally — two 4-lane
// accumulators, a pair-add that halves each accumulator's dependency
// chain, a halving reduction — and what dotPortable spells out in
// plain Go, so results are == across routes (every NaN counts as
// equal: which payload survives is the hardware's choice). The scan no
// longer calls it — no stored record is float64 — and it stays, with its
// vector routine, only because bench/layers.go's kernel.dot_ns probe
// times it and bench/ is frozen.
func Dot(a, b []float64) float64 {
	// Cutting b here is the length check for both routes: a short b
	// panics before any route runs.
	return dot(a, b[:len(a)])
}

// dotPortable is Dot's order in plain Go: the route of every platform
// without the vector routine and the reference the vector routine is
// tested == against. Each product is wrapped in float64(…): the Go
// spec lets a compiler fuse x*y + z into one rounding (arm64, ppc64le,
// s390x and riscv64 do) unless an explicit conversion rounds the
// product first, so without it the "defined order" would silently
// differ across GOARCH. len(b) must equal len(a).
func dotPortable(a, b []float64) float64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(a) >= 16 && len(b) >= 16 {
		s0 += float64(a[0]*b[0]) + float64(a[8]*b[8])
		s1 += float64(a[1]*b[1]) + float64(a[9]*b[9])
		s2 += float64(a[2]*b[2]) + float64(a[10]*b[10])
		s3 += float64(a[3]*b[3]) + float64(a[11]*b[11])
		s4 += float64(a[4]*b[4]) + float64(a[12]*b[12])
		s5 += float64(a[5]*b[5]) + float64(a[13]*b[13])
		s6 += float64(a[6]*b[6]) + float64(a[14]*b[14])
		s7 += float64(a[7]*b[7]) + float64(a[15]*b[15])
		a, b = a[16:], b[16:]
	}
	var t float64
	b = b[:len(a)]
	for i, x := range a {
		t += float64(x * b[i])
	}
	return (((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7))) + t
}
