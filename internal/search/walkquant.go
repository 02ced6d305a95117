package search

import (
	"math"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
)

// Compressed-domain walk: scans a quantized record's int16 counts
// (warm heap or cold mmap tier) without ever promoting it to the hot
// tier, at the hot tier's speed. Each (signal-set, length-group) pass
// dequantizes ONCE: loadQuant widens the pass's counts into the
// worker's scratch as float64 (raw counts — transient, reused, never
// resident in the store) and fills int64 prefix sums of Σc and Σc²
// beside them (kernel.Widen, in vector registers where the platform has
// them). Every visited offset is then the float path's own work
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
	// Quantized: sums[i] = {Σ x[:i], Σ x[:i]²}, exactly.
	sums [][2]int64
}

// loadQuant makes l.seg the pass over qv.Counts[start:start+segLen],
// built in the lane's own buffers: kernel.Widen widens the counts and
// accumulates both prefix sums in one sweep. It is the only
// dequantization a compressed-domain scan performs, shared by every
// query of the batch and by the exhaustive walk's spectrum and
// denominator table.
func (l *lane) loadQuant(qv mdb.QuantView, start, segLen int) {
	if cap(l.qx) < segLen {
		l.qx = make([]float64, segLen)
		l.qsums = make([][2]int64, segLen+1)
	}
	x, sums := l.qx[:segLen], l.qsums[:segLen+1]
	kernel.Widen(x, sums, qv.Counts[start:start+segLen])
	l.seg = segment{x: x, scale: qv.Scale, sums: sums}
}

// norm returns the centred Euclidean norm √(Σ(x−μ)²) of the window at
// offset beta, in O(1), in x's own units (callers multiply by scale).
func (g *segment) norm(beta int) float64 {
	if g.stats != nil {
		return g.stats.WindowNorm(g.start+beta, g.n)
	}
	lo, hi := &g.sums[beta], &g.sums[beta+g.n]
	return intNorm(hi[0]-lo[0], hi[1]-lo[1], float64(g.n))
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
	fn := float64(g.n)
	lo, hi := g.sums[:len(dst)], g.sums[g.n:g.n+len(dst)]
	for beta := range dst {
		dst[beta] = intNorm(hi[beta][0]-lo[beta][0], hi[beta][1]-lo[beta][1], fn)
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
