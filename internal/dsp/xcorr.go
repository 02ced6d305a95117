package dsp

import "math"

// Dot returns the sliding dot product of paper Eq. 2 at zero lag:
// ω(A,B) = Σ A(n)·B(n) over the common length.
func Dot(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var acc float64
	for i := 0; i < n; i++ {
		acc += a[i] * b[i]
	}
	return acc
}

// Pearson returns the Pearson correlation coefficient of a and b
// (equal lengths required by the caller; the shorter length is used).
// Constant inputs yield 0. This is the normalized reading of the
// paper's ω: every reported ω (δ = 0.8, top-100 averages ≈ 0.97) lies
// in [0, 1], which the raw dot product of Eq. 2 cannot guarantee.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var sa, sb float64
	for i := 0; i < n; i++ {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	den := math.Sqrt(va * vb)
	if den < 1e-12 {
		return 0
	}
	return cov / den
}

// SlidingStats holds prefix sums over a signal so that the mean and
// centred energy of any window can be computed in O(1): with the input
// window z-normalised once, the normalized cross-correlation at offset
// β reduces to a single dot product plus an O(1) normalisation. It is
// the float64 form of what the cloud search does over a record's counts
// (kernel.Widen, kernel.Walk), and serves what correlates a float span:
// XCorrSeries, the Fig. 8 re-correlation tracker and experiment.
type SlidingStats struct {
	signal []float64
	// sums[i] = {Σ signal[0:i], Σ signal[0:i]²}. The two totals sit side
	// by side because a window norm always reads both.
	sums [][2]float64
}

// NewSlidingStats precomputes prefix sums over signal. The signal slice
// is retained (not copied); callers must not mutate it afterwards.
func NewSlidingStats(signal []float64) *SlidingStats {
	s := &SlidingStats{signal: signal, sums: make([][2]float64, len(signal)+1)}
	var sum, sumSq float64
	tail := s.sums[1:]
	for i, x := range signal {
		sum += x
		sumSq += x * x
		tail[i] = [2]float64{sum, sumSq}
	}
	return s
}

// Len returns the length of the underlying signal.
func (s *SlidingStats) Len() int { return len(s.signal) }

// Sums returns the prefix sums, Sums()[i] = {Σ signal[:i], Σ signal[:i]²}
// (shared, read-only): Len()+1 entries.
func (s *SlidingStats) Sums() [][2]float64 { return s.sums }

// WindowNorm returns the centred Euclidean norm √(Σ(x−μ)²) of the
// window [start, start+n).
func (s *SlidingStats) WindowNorm(start, n int) float64 {
	lo, hi := &s.sums[start], &s.sums[start+n]
	sum := hi[0] - lo[0]
	sumSq := hi[1] - lo[1]
	v := sumSq - sum*sum/float64(n)
	if v < 0 {
		v = 0 // numerical guard
	}
	return math.Sqrt(v)
}

// CorrAt returns the normalized cross-correlation between a window of
// the stored signal starting at offset start and a pre-z-normalised
// query zq (zero mean, unit norm, length n). Because Σzq = 0 the mean
// of the stored window cancels, leaving one dot product:
//
//	ω = Σ zq[i]·x[start+i] / ‖x_window − μ‖
//
// Degenerate (constant) stored windows return 0.
func (s *SlidingStats) CorrAt(zq []float64, start int) float64 {
	n := len(zq)
	den := s.WindowNorm(start, n)
	if den < 1e-12 {
		return 0
	}
	var dot float64
	x := s.signal[start : start+n]
	for i := 0; i < n; i++ {
		dot += zq[i] * x[i]
	}
	return dot / den
}

// MaxOffset returns the largest valid window start for queries of
// length n (inclusive), or -1 if the signal is shorter than n.
func (s *SlidingStats) MaxOffset(n int) int {
	return len(s.signal) - n
}

// XCorrSeries computes the normalized cross-correlation of query
// against every offset of signal with the given stride, returning one
// value per evaluated offset. It is the exhaustive-search kernel used
// by the Fig. 5/Fig. 7 baselines.
func XCorrSeries(signal, query []float64, stride int) []float64 {
	if stride < 1 {
		stride = 1
	}
	n := len(query)
	if len(signal) < n || n == 0 {
		return nil
	}
	zq := make([]float64, n)
	if ZNormalizeTo(zq, query) == 0 {
		return make([]float64, (len(signal)-n)/stride+1)
	}
	stats := NewSlidingStats(signal)
	out := make([]float64, 0, (len(signal)-n)/stride+1)
	for off := 0; off+n <= len(signal); off += stride {
		out = append(out, stats.CorrAt(zq, off))
	}
	return out
}
