// Package kernel is the correlation kernel engine under the cloud
// search: the innermost arithmetic of the whole system. The paper's
// cloud tier is one operation repeated billions of times — the
// normalized cross-correlation ω of a z-normalized query against every
// offset of every stored signal-set — and this package supplies the
// two ways to compute it fast:
//
//   - an unrolled scalar dot product (Dot) for the skip walk, where
//     Algorithm 1 touches only a fraction of offsets;
//   - an FFT profiler (Engine, Profiler) that computes a signal-set's
//     FULL ω numerator profile in O(L log L) — one cached-plan real
//     transform of the stored region, one per unique query, one
//     multiply + inverse per pair — for the exhaustive baseline.
//
// The search layer (internal/search) gives each scan its one kernel;
// this package only does arithmetic and caches FFT plans per size.
package kernel

// Dot returns Σ a[i]·b[i] over len(a) elements (len(b) must be at
// least len(a)). The loop is 8-way unrolled over four independent
// accumulators, which both feeds the CPU's FMA ports and — by
// splitting the sum into four interleaved sub-sums — already tightens
// the worst-case rounding error versus a single running sum.
func Dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += a[i]*b[i] + a[i+4]*b[i+4]
		s1 += a[i+1]*b[i+1] + a[i+5]*b[i+5]
		s2 += a[i+2]*b[i+2] + a[i+6]*b[i+6]
		s3 += a[i+3]*b[i+3] + a[i+7]*b[i+7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}
