package kernel

// Kernels over the int16 counts of the tiered MDB store (internal/mdb),
// whose records hold counts on a per-record scale.
//
// DotQ is the dot of a walk over counts (Walk.ResetQ): the query arrives
// as counts, the record is counts, and Pearson's r is invariant to
// either side's scale and offset, so Σqc is taken over the integers as
// they are — exactly, in int64, sixteen multiply-adds per instruction
// where the platform has them — and the step that follows needs nothing
// but Σqc and the windows' integer sums. The portable step calls DotQ's
// route once per lane; the AVX2 step runs the same instructions inline
// for four windows at once. DotQF, the float query against stored
// counts, has no production caller: it is kept for the benchmark
// harness's kernel probes and as a reference in tests.

// dotq is the route DotQ runs: the portable loop, replaced in
// dot_amd64.go's init by the AVX2 routine. Integer sums have no order,
// so the two cannot differ.
var dotq = dotqPortable

// DotQ returns Σ a[i]·b[i] over len(a) int16 elements (len(b) must be
// at least len(a)), exactly: |count| ≤ 2¹⁵ puts a product at most 2³⁰,
// so int64 holds 2³³ of them, and no window is longer than 2²⁰ samples.
// Integer addition is associative — the result does not depend on how
// the sum is split or in what order it is taken.
func DotQ(a, b []int16) int64 {
	// As in Dot, the cut is the length check for both routes.
	return dotq(a, b[:len(a)])
}

// dotqPortable is DotQ in plain Go; the split accumulators change
// nothing but speed, and the slices are advanced rather than indexed so
// the loop carries no bounds checks. len(b) must equal len(a).
func dotqPortable(a, b []int16) int64 {
	var s0, s1, s2, s3 int64
	for len(a) >= 8 && len(b) >= 8 {
		s0 += int64(a[0])*int64(b[0]) + int64(a[4])*int64(b[4])
		s1 += int64(a[1])*int64(b[1]) + int64(a[5])*int64(b[5])
		s2 += int64(a[2])*int64(b[2]) + int64(a[6])*int64(b[6])
		s3 += int64(a[3])*int64(b[3]) + int64(a[7])*int64(b[7])
		a, b = a[8:], b[8:]
	}
	b = b[:len(a)]
	for i, x := range a {
		s0 += int64(x) * int64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// DotQF returns Σ q[i]·float64(c[i]) over len(q) elements (len(c) must
// be at least len(q)): the mixed-domain dot — the float query against
// the stored counts, with the record scale left to the caller. It
// follows Dot's defined summation order (lanes, pair-add, sequential
// tail, reduction tree, every product rounded before it is added), and
// widening a count is exact, so it is bit-identical to Dot(q, w) for
// w[i] = float64(c[i]) on every route.
func DotQF(q []float64, c []int16) float64 {
	c = c[:len(q)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(q) >= 16 && len(c) >= 16 {
		s0 += float64(q[0]*float64(c[0])) + float64(q[8]*float64(c[8]))
		s1 += float64(q[1]*float64(c[1])) + float64(q[9]*float64(c[9]))
		s2 += float64(q[2]*float64(c[2])) + float64(q[10]*float64(c[10]))
		s3 += float64(q[3]*float64(c[3])) + float64(q[11]*float64(c[11]))
		s4 += float64(q[4]*float64(c[4])) + float64(q[12]*float64(c[12]))
		s5 += float64(q[5]*float64(c[5])) + float64(q[13]*float64(c[13]))
		s6 += float64(q[6]*float64(c[6])) + float64(q[14]*float64(c[14]))
		s7 += float64(q[7]*float64(c[7])) + float64(q[15]*float64(c[15]))
		q, c = q[16:], c[16:]
	}
	var t float64
	c = c[:len(q)]
	for i, x := range q {
		t += float64(x * float64(c[i]))
	}
	return (((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7))) + t
}
