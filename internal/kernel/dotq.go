package kernel

// Quantized kernels: dot products taken directly over the int16 counts
// of the tiered MDB store (internal/mdb). Warm/cold records hold int16
// counts on a per-record scale; the ω numerator over a window is then
//
//	Σ q[i]·x[i] = qscale·xscale · Σ qc[i]·xc[i]
//
// Neither kernel has a production caller: the scan is compute-bound,
// not memory-traffic bound (bench/baseline.json: DotQF's per-element
// int16→float64 widening makes it 165 ns against Dot's 90 ns over 256
// samples), so the compressed-domain walk widens each signal-set once
// into a scratch segment and runs Dot over it (internal/search/
// walkquant.go). DotQ and DotQF are exported for the benchmark
// harness's kernel probes and as the reference the segment walk is
// tested bit-identical against. int64 cannot overflow in DotQ:
// |count| ≤ 2^15, so each product is < 2^30 and 2^33 terms would be
// needed to reach 2^63; windows are a few thousand samples.

// DotQ returns Σ a[i]·b[i] over len(a) int16 elements (len(b) must be
// at least len(a)), accumulated in int64. Integer addition is
// associative, so unlike the float kernels the split accumulators
// change nothing but speed.
func DotQ(a, b []int16) int64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += int64(a[i])*int64(b[i]) + int64(a[i+4])*int64(b[i+4])
		s1 += int64(a[i+1])*int64(b[i+1]) + int64(a[i+5])*int64(b[i+5])
		s2 += int64(a[i+2])*int64(b[i+2]) + int64(a[i+6])*int64(b[i+6])
		s3 += int64(a[i+3])*int64(b[i+3]) + int64(a[i+7])*int64(b[i+7])
	}
	for ; i < n; i++ {
		s0 += int64(a[i]) * int64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// DotQF returns Σ q[i]·float64(c[i]) over len(q) elements (len(c) must
// be at least len(q)): the mixed-domain dot — the float query against
// the stored counts, with the record scale left to the caller. It
// follows Dot's defined summation order (lanes, pair-add, sequential
// tail, reduction tree, every product rounded before it is added), and
// widening a count is exact, so it is bit-identical to Dot(q, w) for
// w[i] = float64(c[i]) on every route — which is what lets the search
// widen once per signal-set instead of once per evaluation.
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
