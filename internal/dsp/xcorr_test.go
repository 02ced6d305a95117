package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"emap/internal/rng"
)

func randSignal(r *rng.Source, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(0, 10)
	}
	return xs
}

func TestDotBasic(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
}

func TestDotUnequalLengths(t *testing.T) {
	if got := Dot([]float64{1, 2, 3, 9}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot truncation = %g, want 32", got)
	}
	if got := Dot(nil, []float64{1}); got != 0 {
		t.Fatalf("Dot(nil, x) = %g, want 0", got)
	}
}

func TestPearsonSelf(t *testing.T) {
	r := rng.New(1)
	xs := randSignal(r, 256)
	if got := Pearson(xs, xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pearson(x,x) = %g, want 1", got)
	}
}

func TestPearsonAntiCorrelated(t *testing.T) {
	r := rng.New(2)
	xs := randSignal(r, 256)
	neg := make([]float64, len(xs))
	for i, v := range xs {
		neg[i] = -v
	}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Pearson(x,-x) = %g, want -1", got)
	}
}

func TestPearsonShiftScaleInvariance(t *testing.T) {
	r := rng.New(3)
	xs := randSignal(r, 128)
	ys := make([]float64, len(xs))
	for i, v := range xs {
		ys[i] = 3*v + 100
	}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Pearson affine invariance broken: %g", got)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	c := []float64{5, 5, 5, 5}
	x := []float64{1, 2, 3, 4}
	if got := Pearson(c, x); got != 0 {
		t.Fatalf("Pearson(const, x) = %g, want 0", got)
	}
}

// Property: |Pearson| ≤ 1 and symmetry, via testing/quick.
func TestPearsonProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 + r.Intn(256)
		a, b := randSignal(r, n), randSignal(r, n)
		p := Pearson(a, b)
		if math.Abs(p) > 1+1e-9 {
			return false
		}
		return math.Abs(p-Pearson(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingStatsCorrMatchesPearson(t *testing.T) {
	r := rng.New(5)
	signal := randSignal(r, 1000)
	query := randSignal(r, 256)
	stats := NewSlidingStats(signal)
	zq := ZNormalize(query)
	for _, off := range []int{0, 1, 100, 500, 744} {
		want := Pearson(query, signal[off:off+256])
		got := stats.CorrAt(zq, off)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("CorrAt(%d) = %g, want %g", off, got, want)
		}
	}
}

// Property: CorrAt agrees with the direct Pearson computation at every
// offset for arbitrary seeds.
func TestSlidingStatsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		sigLen := 300 + r.Intn(700)
		qLen := 16 + r.Intn(128)
		signal := randSignal(r, sigLen)
		query := randSignal(r, qLen)
		stats := NewSlidingStats(signal)
		zq := ZNormalize(query)
		off := r.Intn(sigLen - qLen + 1)
		want := Pearson(query, signal[off:off+qLen])
		got := stats.CorrAt(zq, off)
		return math.Abs(got-want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSlidingStatsInterleavedSumsBitEqual: keeping Σx and Σx² side by
// side changed where the running totals are stored, not how they are
// accumulated — every prefix sum, and so every WindowNorm, has the bits
// the two-array form had, on short random signals and on a 10⁶-sample
// one whose totals have long since stopped being exact.
func TestSlidingStatsInterleavedSumsBitEqual(t *testing.T) {
	r := rng.New(41)
	for _, sigLen := range []int{1, 2, 257, 1000, 1_000_000} {
		signal := randSignal(r, sigLen)
		for i := range signal {
			signal[i] = signal[i]*40 + 3 // µV-scale, off-centre: the sums drift
		}
		stats := NewSlidingStats(signal)
		sum, sumSq := make([]float64, sigLen+1), make([]float64, sigLen+1)
		for i, x := range signal {
			sum[i+1] = sum[i] + x
			sumSq[i+1] = sumSq[i] + x*x
		}
		sums := stats.Sums()
		if len(sums) != sigLen+1 {
			t.Fatalf("%d samples: %d prefix sums", sigLen, len(sums))
		}
		for i := range sums {
			if math.Float64bits(sums[i][0]) != math.Float64bits(sum[i]) || math.Float64bits(sums[i][1]) != math.Float64bits(sumSq[i]) {
				t.Fatalf("%d samples: Sums()[%d] = %v, two arrays (%g, %g)", sigLen, i, sums[i], sum[i], sumSq[i])
			}
		}
		for trial := 0; trial < 2000; trial++ {
			start := r.Intn(sigLen)
			n := 1 + r.Intn(min(sigLen-start, 2000))
			s, sq := sum[start+n]-sum[start], sumSq[start+n]-sumSq[start]
			v := sq - s*s/float64(n)
			if v < 0 {
				v = 0
			}
			if got, want := stats.WindowNorm(start, n), math.Sqrt(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d samples: WindowNorm(%d, %d) = %x, two arrays %x", sigLen, start, n, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestSlidingStatsDegenerateWindow(t *testing.T) {
	signal := make([]float64, 300) // all zeros: every window constant
	stats := NewSlidingStats(signal)
	zq := ZNormalize([]float64{1, 2, 3, 4})
	if got := stats.CorrAt(zq, 10); got != 0 {
		t.Fatalf("constant window corr = %g, want 0", got)
	}
}

func TestSlidingStatsMaxOffset(t *testing.T) {
	stats := NewSlidingStats(make([]float64, 1000))
	if got := stats.MaxOffset(256); got != 744 {
		t.Fatalf("MaxOffset = %d, want 744 (paper Fig. 5)", got)
	}
	if got := stats.MaxOffset(2000); got >= 0 {
		t.Fatalf("MaxOffset for oversize query = %d, want negative", got)
	}
}

func TestXCorrSeriesFindsEmbeddedPattern(t *testing.T) {
	r := rng.New(7)
	signal := randSignal(r, 1000)
	query := make([]float64, 256)
	copy(query, signal[400:656])
	series := XCorrSeries(signal, query, 1)
	if len(series) != 745 {
		t.Fatalf("series length = %d, want 745", len(series))
	}
	best, bestOff := -2.0, -1
	for i, v := range series {
		if v > best {
			best, bestOff = v, i
		}
	}
	if bestOff != 400 {
		t.Fatalf("peak at %d, want 400", bestOff)
	}
	if best < 0.999 {
		t.Fatalf("peak correlation %g, want ≈1", best)
	}
}

func TestXCorrSeriesStride(t *testing.T) {
	r := rng.New(8)
	signal := randSignal(r, 1000)
	query := randSignal(r, 256)
	full := XCorrSeries(signal, query, 1)
	strided := XCorrSeries(signal, query, 10)
	for i, v := range strided {
		if math.Abs(v-full[i*10]) > 1e-12 {
			t.Fatalf("stride mismatch at %d", i)
		}
	}
}

func TestXCorrSeriesShortSignal(t *testing.T) {
	if got := XCorrSeries([]float64{1, 2}, []float64{1, 2, 3}, 1); got != nil {
		t.Fatalf("short signal should yield nil, got %v", got)
	}
}

func TestWindowNormMatchesDirect(t *testing.T) {
	r := rng.New(9)
	signal := randSignal(r, 500)
	stats := NewSlidingStats(signal)
	for _, tc := range []struct{ start, n int }{{0, 10}, {100, 256}, {244, 256}, {490, 10}} {
		win := signal[tc.start : tc.start+tc.n]
		mu := Mean(win)
		var want float64
		for _, x := range win {
			want += (x - mu) * (x - mu)
		}
		want = math.Sqrt(want)
		got := stats.WindowNorm(tc.start, tc.n)
		if math.Abs(got-want) > 1e-8 {
			t.Fatalf("WindowNorm(%d,%d) = %g, want %g", tc.start, tc.n, got, want)
		}
	}
}

func BenchmarkCorrAt256(b *testing.B) {
	r := rng.New(1)
	signal := randSignal(r, 1000)
	query := randSignal(r, 256)
	stats := NewSlidingStats(signal)
	zq := ZNormalize(query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.CorrAt(zq, i%700)
	}
}

func BenchmarkPearson256(b *testing.B) {
	r := rng.New(1)
	x := randSignal(r, 256)
	y := randSignal(r, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Pearson(x, y)
	}
}
