package search

import (
	"emap/internal/kernel"
	"emap/internal/mdb"
)

// Compressed-domain walk: scans a quantized record's int16 counts
// (warm heap or cold mmap tier) without ever promoting it to the hot
// tier, at the hot tier's speed. Each (signal-set, length-group) pass
// dequantizes ONCE: loadQuant widens the pass's counts into the
// worker's scratch as float64 (raw counts — transient, reused, never
// resident in the store) and fills prefix sums of Σc and Σc² beside
// them — exact integers held as float64, the form a hot record's
// sliding statistics have, so the step kernel reads both tiers by one
// formula (kernel.Widen, in vector registers where the platform has
// them). Every visited offset is then the float path's own work — the
// kernel's dot over the scratch plus two subtractions — where a dot
// taken directly over the counts would widen each stored sample once
// per evaluation, ≈50 times per query. Correctness rests on two facts:
//
//  1. The window sums are exact — integers within 2⁵³, which
//     kernel.MaxWidenLen guarantees and mdb.MaxSliceLen enforces — so
//     the normalization denominator √(Σc² − (Σc)²/n) is the same
//     mathematical quantity the float path computes from its prefix
//     sums, and the very bits integer arithmetic followed by one
//     convert gives — and the record scale cancels between numerator
//     and denominator: ω = Σ zq·c / √(Σc² − (Σc)²/n). Widening a count
//     is exact too, so the dot over the scratch has the same products
//     in the same defined summation order (kernel.Dot's contract, on
//     whichever route the platform runs) as kernel.DotQF over the
//     counts, and the sums are the integers QuantView.WindowSums
//     returns (segment_test.go pins both with ==).
//
//  2. The exhaustive walk's FFT numerator profile (one cached-plan
//     transform of the same scratch per pass, O(L log L) instead of
//     O(n·L) dot products) is a PREFILTER, never a score — see
//     walkDense.

// segment is the stored side of one (signal-set, length-group) pass in
// the one shape every walker reads: x[β:β+n] is the window at offset
// β ∈ [0, maxOff], sums[i] = {Σ x[:i], Σ x[:i]²} the prefix sums its
// centred norm comes from in O(1), and ω = scale·Σzq·x / (scale·norm).
// A hot record aliases its float64 signal and its sliding statistics
// (scale 1); a quantized record is the scratch loadQuant built, whose
// sums are exact integers, with the record's µV-per-count step as
// scale. Nothing below this struct knows which it is.
type segment struct {
	setID, n, maxOff int
	x                []float64
	sums             [][2]float64
	scale            float64
}

// loadQuant makes l.seg the pass over qv.Counts[start:start+segLen],
// built in the lane's own buffers: kernel.Widen widens the counts and
// accumulates both prefix sums in one sweep. It is the only
// dequantization a compressed-domain scan performs, shared by every
// query of the batch and by the exhaustive walk's spectrum and
// denominator table.
func (l *lane) loadQuant(qv mdb.QuantView, start, segLen int) {
	// One slice and one query less a sample, each at most
	// mdb.MaxSliceLen: well inside what keeps the sums exact.
	if segLen >= 2*mdb.MaxSliceLen {
		panic("search: pass longer than a slice and a query can make it")
	}
	if cap(l.qx) < segLen {
		l.qx = make([]float64, segLen)
		l.qsums = make([][2]float64, segLen+1)
	}
	x, sums := l.qx[:segLen], l.qsums[:segLen+1]
	kernel.Widen(x, sums, qv.Counts[start:start+segLen])
	l.seg = segment{x: x, scale: qv.Scale, sums: sums}
}

// norms fills dst[β] with the centred norm of the window at offset β,
// in x's own units (callers multiply by scale) — the dense walk's
// denominator table, by the step kernel's own expression.
func (g *segment) norms(dst []float64) {
	fn := float64(g.n)
	lo, hi := g.sums[:len(dst)], g.sums[g.n:g.n+len(dst)]
	for beta := range dst {
		dst[beta] = kernel.WindowNorm(hi[beta][0]-lo[beta][0], hi[beta][1]-lo[beta][1], fn)
	}
}
