package search

import (
	"math"

	"emap/internal/dsp"
	"emap/internal/mdb"
)

// Compressed-domain walk: scans a quantized record's int16 counts
// (warm heap or cold mmap tier) without ever promoting it to the hot
// tier, at the hot tier's speed. Each (signal-set, length-group) pass
// dequantizes ONCE: loadQuant widens the pass's counts into the
// worker's scratch as float64 (raw counts — transient, reused, never
// resident in the store) and fills int64 prefix sums of Σc and Σc²
// beside them. Every visited offset is then the float path's own work
// — kernel.Dot over the scratch plus two subtractions — where a dot
// taken directly over the counts would widen each stored sample once
// per evaluation, ≈50 times per query. Correctness rests on two facts:
//
//  1. The integer window sums are exact, so the normalization
//     denominator √(Σc² − (Σc)²/n) is the same mathematical quantity
//     the float path computes from its prefix sums — and the record
//     scale cancels between numerator and denominator:
//     ω = Σ zq·c / √(Σc² − (Σc)²/n). Widening a count is exact too, so
//     the dot over the scratch has the same products in the same
//     defined summation order (kernel.Dot's contract, on whichever
//     route the platform runs) as kernel.DotQF over the counts, and the
//     sums are the integers QuantView.WindowSums returns
//     (segment_test.go pins both with ==).
//
//  2. The exhaustive walk's FFT numerator profile (one cached-plan
//     transform of the same scratch per pass, O(L log L) instead of
//     O(n·L) dot products) is a PREFILTER, never a score — see
//     walkDense.

// segment is the stored side of one (signal-set, length-group) pass in
// the one shape every walker reads: x[β:β+n] is the window at offset
// β ∈ [0, maxOff], norm(β) its centred norm, and
// ω = scale·Σzq·x / (scale·norm). A hot record aliases its float64
// signal and takes norms from the float prefix sums (scale 1); a
// quantized record is the scratch loadQuant built, with exact integer
// norms and the record's µV-per-count step as scale.
type segment struct {
	setID, n, maxOff int
	x                []float64
	scale            float64
	// Hot tier: the record's sliding stats; the segment starts at
	// sample start.
	stats *dsp.SlidingStats
	start int
	// Quantized: psum[i] = Σ x[:i] and psumSq[i] = Σ x[:i]², exactly.
	psum, psumSq []int64
}

// loadQuant makes scr.seg the pass over qv.Counts[start:start+segLen]:
// one loop widens the counts and accumulates both prefix sums. It is
// the only dequantization a compressed-domain scan performs, shared by
// every cursor of the batch and by the exhaustive walk's spectrum and
// denominator table.
func (scr *walkScratch) loadQuant(qv mdb.QuantView, start, segLen int) {
	if cap(scr.qx) < segLen {
		scr.qx = make([]float64, segLen)
		scr.psum = make([]int64, segLen+1)
		scr.psumSq = make([]int64, segLen+1)
	}
	src := qv.Counts[start : start+segLen]
	// Slices cut to len(src) so the loop carries no bounds checks;
	// psum[0] = psumSq[0] = 0 is never overwritten.
	x, ps, pq := scr.qx[:len(src)], scr.psum[1:len(src)+1], scr.psumSq[1:len(src)+1]
	var sum, sumSq int64
	for i, c := range src {
		v := int64(c)
		sum += v
		sumSq += v * v
		x[i], ps[i], pq[i] = float64(c), sum, sumSq
	}
	scr.seg = segment{x: x, scale: qv.Scale, psum: scr.psum[:segLen+1], psumSq: scr.psumSq[:segLen+1]}
}

// norm returns the centred Euclidean norm √(Σ(x−μ)²) of the window at
// offset beta, in O(1), in x's own units (callers multiply by scale).
func (g *segment) norm(beta int) float64 {
	if g.stats != nil {
		return g.stats.WindowNorm(g.start+beta, g.n)
	}
	return intNorm(g.psum[beta+g.n]-g.psum[beta], g.psumSq[beta+g.n]-g.psumSq[beta], float64(g.n))
}

// norms fills dst[β] = norm(β) — the dense walk's denominator table,
// one call-free loop per representation.
func (g *segment) norms(dst []float64) {
	if g.stats != nil {
		for beta := range dst {
			dst[beta] = g.stats.WindowNorm(g.start+beta, g.n)
		}
		return
	}
	fn, n, end := float64(g.n), g.n, g.n+len(dst)
	lo, loSq, hi, hiSq := g.psum[:len(dst)], g.psumSq[:len(dst)], g.psum[n:end], g.psumSq[n:end]
	for beta := range dst {
		dst[beta] = intNorm(hi[beta]-lo[beta], hiSq[beta]-loSq[beta], fn)
	}
}

// intNorm is the centred norm from exact integer window sums. A
// constant window gives exactly 0 (the subtraction cancels bit-for-bit
// because the true quotient is representable), matching the float
// path's degenerate handling.
func intNorm(sum, sumSq int64, fn float64) float64 {
	v := float64(sumSq) - float64(sum)*float64(sum)/fn
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
