package kernel

import (
	"encoding/binary"
	"math"
	"testing"

	"emap/internal/rng"
)

// naiveDot is the single-accumulator reference all kernels are
// compared against.
func naiveDot(a, b []float64) float64 {
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// dotTol is the acceptable divergence between two summation orders of
// the same products: proportional to Σ|aᵢbᵢ|, the standard backward
// error bound.
func dotTol(a, b []float64) float64 {
	var mag float64
	for i := range a {
		mag += math.Abs(a[i] * b[i])
	}
	return 1e-12*mag + 1e-300
}

func randVec(r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64() * 100
	}
	return out
}

// TestDotKernelsMatchNaive sweeps lengths across every unroll tail,
// then windows far longer than the scan's.
func TestDotKernelsMatchNaive(t *testing.T) {
	r := rng.New(3)
	lengths := []int{1000, 4096}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		a, b := randVec(r, n), randVec(r, n)
		want := naiveDot(a, b)
		if got, tol := Dot(a, b), dotTol(a, b); math.Abs(got-want) > tol {
			t.Fatalf("Dot(n=%d) = %g, naive = %g (tol %g)", n, got, want, tol)
		}
	}
}

// TestDotUsesPrefixOfB: the kernel contracts over len(a) with a longer b.
func TestDotUsesPrefixOfB(t *testing.T) {
	r := rng.New(5)
	a, b := randVec(r, 13), randVec(r, 40)
	want := naiveDot(a, b[:13])
	if got := Dot(a, b); math.Abs(got-want) > dotTol(a, b[:13]) {
		t.Fatalf("Dot over prefix = %g, want %g", got, want)
	}
}

// FuzzDot feeds arbitrary float pairs through the kernel and
// requires agreement with the naive loop within the summation-order
// error bound. NaN/Inf inputs are skipped — ω is computed over
// bandpass-filtered finite samples by construction.
func FuzzDot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 16*33)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		a, b := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			b[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				t.Skip("non-finite input")
			}
			// Extreme magnitudes overflow the product; the scan's
			// inputs are µV-scale by construction.
			if math.Abs(a[i]) > 1e150 || math.Abs(b[i]) > 1e150 {
				t.Skip("out-of-domain magnitude")
			}
		}
		want := naiveDot(a, b)
		tol := dotTol(a, b)
		if got := Dot(a, b); math.Abs(got-want) > tol {
			t.Fatalf("Dot = %g, naive = %g (n=%d)", got, want, n)
		}
	})
}

// TestProfilerMatchesNaiveSlidingDots: the FFT profile must equal the
// scalar sliding dot product at every offset.
func TestProfilerMatchesNaiveSlidingDots(t *testing.T) {
	e := NewEngine()
	r := rng.New(9)
	for _, tc := range []struct{ segLen, n int }{
		{10, 3}, {100, 17}, {1000, 256}, {1255, 256}, {300, 300}, {2, 2},
	} {
		seg := randVec(r, tc.segLen)
		q := randVec(r, tc.n)
		p := e.Profiler(tc.segLen)
		segSpec := make([]complex128, p.Bins())
		qSpec := make([]complex128, p.Bins())
		work := make([]complex128, p.Bins())
		profile := make([]float64, p.M())
		p.Spectrum(segSpec, seg)
		p.Spectrum(qSpec, q)
		p.Correlate(profile, segSpec, qSpec, work)
		for beta := 0; beta+tc.n <= tc.segLen; beta++ {
			want := naiveDot(q, seg[beta:beta+tc.n])
			if math.Abs(profile[beta]-want) > 1e-7*(1+math.Abs(want)) {
				t.Fatalf("segLen=%d n=%d β=%d: profile %g, naive %g", tc.segLen, tc.n, beta, profile[beta], want)
			}
		}
	}
}

// TestEngineCachesPlans: repeated profilers of one size share a plan;
// Prewarm builds ahead of first use.
func TestEngineCachesPlans(t *testing.T) {
	e := NewEngine()
	p1 := e.Profiler(1000)
	p2 := e.Profiler(1024)
	if p1.M() != 1024 || p2.M() != 1024 {
		t.Fatalf("plan sizes %d, %d, want 1024", p1.M(), p2.M())
	}
	if e.Sizes() != 1 {
		t.Fatalf("cached %d sizes, want 1", e.Sizes())
	}
	e.Prewarm(2048, 2048, 1)
	if e.Sizes() != 3 { // 1024, 2048, 2
		t.Fatalf("cached %d sizes after prewarm, want 3", e.Sizes())
	}
}

func BenchmarkDot(b *testing.B) {
	r := rng.New(1)
	x, y := randVec(r, 256), randVec(r, 256)
	var sink float64
	for _, bc := range []struct {
		name string
		k    func(a, b []float64) float64
	}{{"naive", naiveDot}, {"unroll8", Dot}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += bc.k(x, y)
			}
		})
	}
	_ = sink
}
