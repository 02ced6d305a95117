package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"

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

// sameFloat is the kernel's route equality: == as float64 values, with
// every NaN equal to every other (which payload survives a sum is the
// hardware's choice, not part of the summation order) and −0 ≠ +0.
func sameFloat(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// misalign cuts len(buf)−4 elements out of buf so that the first sits
// mis (0…3) elements past a 32-byte boundary — every 8-byte
// misalignment a 256-bit load can see.
func misalign(buf []float64, mis int) []float64 {
	at := int(uintptr(unsafe.Pointer(&buf[0])) / 8 % 4)
	off, n := (mis-at+4)%4, len(buf)-4
	return buf[off : off+n : off+n]
}

// dotLengths is every n across the 16-element block and its tail,
// the scan's own window (256) with a neighbour either side, and
// windows far longer than the scan's.
func dotLengths() []int {
	lengths := []int{255, 256, 257, 1000, 4096}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	return lengths
}

// TestDotKernelsMatchNaive: at every length and every misalignment of
// either operand, with b longer than a, the route Dot runs on this
// machine (the AVX2 routine on an amd64 that has it) returns the
// portable loop's bits, and both agree with the single-accumulator
// loop within the summation-order bound.
func TestDotKernelsMatchNaive(t *testing.T) {
	r := rng.New(3)
	for _, n := range dotLengths() {
		for offA := 0; offA < 4; offA++ {
			for offB := 0; offB < 4; offB++ {
				a, b := misalign(randVec(r, n+4), offA), misalign(randVec(r, n+9), offB)
				want := dotPortable(a, b[:n])
				if got := Dot(a, b); !sameFloat(got, want) {
					t.Fatalf("Dot(n=%d, a+%d, b+%d) = %x, portable = %x", n, offA, offB, math.Float64bits(got), math.Float64bits(want))
				}
				if naive, tol := naiveDot(a, b), dotTol(a, b[:n]); math.Abs(want-naive) > tol {
					t.Fatalf("portable(n=%d) = %g, naive = %g (tol %g)", n, want, naive, tol)
				}
			}
		}
	}
}

// specials are the inputs a summation order can trip over: non-finite
// values, signed zeros, denormals and magnitudes whose products overflow
// or cancel.
var specials = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64, 1e200, -1e200,
}

// TestDotSpecialValues plants ±Inf, NaN, denormals, ±0 and products
// that overflow or cancel in every position of the block and the tail:
// the routes must still agree, and DotQF — same order — must match Dot
// over the widened counts.
func TestDotSpecialValues(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 15, 16, 17, 33, 50} {
		for pos := 0; pos < n; pos++ {
			for si, sv := range specials {
				a, b := randVec(r, n), randVec(r, n)
				a[pos] = sv
				b[(pos+7)%n] = specials[(si+pos)%len(specials)]
				want := dotPortable(a, b)
				if got := Dot(a, b); !sameFloat(got, want) {
					t.Fatalf("n=%d pos=%d special=%g: Dot = %x, portable = %x", n, pos, sv, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
	// All-negative-zero products: every lane and the tail stay +0.
	neg, pos := make([]float64, 40), make([]float64, 40)
	for i := range neg {
		neg[i] = math.Copysign(0, -1)
		pos[i] = 1
	}
	for n := 0; n <= 40; n++ {
		if got := Dot(neg[:n], pos[:n]); !sameFloat(got, 0) || !sameFloat(dotPortable(neg[:n], pos[:n]), 0) {
			t.Fatalf("Dot over %d negative zeros = %x, want +0", n, math.Float64bits(got))
		}
	}
}

// TestDotQFFollowsDotOrder: the quantized oracle equals Dot over the
// widened counts, bit for bit, at every length.
func TestDotQFFollowsDotOrder(t *testing.T) {
	r := rng.New(13)
	for _, n := range dotLengths() {
		q := randVec(r, n)
		c, w := make([]int16, n+3), make([]float64, n+3)
		for i := range c {
			c[i] = int16(r.Intn(1<<16) - 1<<15)
			w[i] = float64(c[i])
		}
		if got, want := DotQF(q, c), Dot(q, w); !sameFloat(got, want) {
			t.Fatalf("DotQF(n=%d) = %x, Dot over widened counts = %x", n, math.Float64bits(got), math.Float64bits(want))
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

// panicOf returns what f panics with, as text ("" if it returns).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestDotShortBPanics: a b shorter than a is refused by the slice
// expression in Dot, before any route runs — so the panic is the same
// whichever route the machine selected, and no route reads past b.
func TestDotShortBPanics(t *testing.T) {
	a, b := make([]float64, 40), make([]float64, 39)
	want := panicOf(func() { _ = b[:len(a)] })
	if want == "" {
		t.Fatal("reference slice expression did not panic")
	}
	selected := dot
	defer func() { dot = selected }()
	for _, route := range []func(a, b []float64) float64{selected, dotPortable} {
		dot = route
		if got := panicOf(func() { Dot(a, b) }); got != want {
			t.Fatalf("Dot with a short b panicked with %q, want %q", got, want)
		}
	}
}

// TestWidenRoutesAgree: the route Widen runs on this machine (the AVX2
// routine on an amd64 that has it) writes exactly the portable loop's
// running sums — lengths 0…40 (every n mod 4 tail), the
// scan's own segment length and its neighbours, random counts and runs
// of MinInt16, whose square is the largest a count has — and both are
// the sums a plain loop gets.
func TestWidenRoutesAgree(t *testing.T) {
	r := rng.New(23)
	lengths := []int{255, 256, 257, 1255}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, fill := range []string{"random", "min", "mixed"} {
			c := make([]int16, n)
			for i := range c {
				switch {
				case fill == "min" || fill == "mixed" && i/7%2 == 0:
					c[i] = math.MinInt16
				default:
					c[i] = int16(r.Intn(1<<16) - 1<<15)
				}
			}
			// One spare element either side of what Widen may write,
			// poisoned, proves it writes nothing else.
			sums, wsums := make([][2]float64, n+2), make([][2]float64, n+2)
			sums[n+1], sums[0] = [2]float64{-1, -1}, [2]float64{5, 5}
			wsums[n+1] = [2]float64{-1, -1}
			Widen(sums, c)
			widenPortable(wsums, c)
			var sum, sumSq int64
			for i, v := range c {
				sum += int64(v)
				sumSq += int64(v) * int64(v)
				if wsums[i+1] != [2]float64{float64(sum), float64(sumSq)} {
					t.Fatalf("%s n=%d: portable sums[%d] = %v, want (%d, %d)", fill, n, i+1, wsums[i+1], sum, sumSq)
				}
			}
			for i := range wsums {
				if sums[i] != wsums[i] {
					t.Fatalf("%s n=%d: sums[%d] = %v, portable %v", fill, n, i, sums[i], wsums[i])
				}
			}
		}
	}
}

// TestWidenExactAtMaxLen: at the largest length Widen admits, with every
// count MinInt16 — the largest square a count has, so the largest totals
// any pass can reach — both routes still write the integer sums exactly,
// entry by entry; one count more is refused. The run is fed in chunks,
// each continuing from the last entry of the one before (what the routes
// do between the vector fours and the portable tail), so the test holds
// 64 Ki counts at a time, not 8 Mi.
func TestWidenExactAtMaxLen(t *testing.T) {
	const chunk = 1 << 16
	c := make([]int16, chunk)
	for i := range c {
		c[i] = math.MinInt16
	}
	sums := make([][2]float64, chunk+1)
	for name, route := range map[string]func(sums [][2]float64, c []int16){"selected": widen, "portable": widenPortable} {
		sums[0] = [2]float64{}
		for done := 0; done < MaxWidenLen; {
			m := min(chunk, MaxWidenLen-done)
			route(sums[:m+1], c[:m])
			for i := 1; i <= m; i++ {
				count := int64(done + i)
				if got := sums[i]; int64(got[0]) != count*math.MinInt16 || int64(got[1]) != count<<30 || got[0] != float64(count*math.MinInt16) || got[1] != float64(count<<30) {
					t.Fatalf("%s: sums[%d] = %v, want (%d, %d)", name, done+i, got, count*math.MinInt16, count<<30)
				}
			}
			sums[0], done = sums[m], done+m
		}
	}
	if msg := panicOf(func() { Widen(nil, make([]int16, MaxWidenLen+1)) }); msg == "" {
		t.Fatal("Widen accepted more counts than MaxWidenLen")
	}
}

// FuzzDot feeds arbitrary float pairs — NaN, ±Inf and denormals
// included — through the kernel at a fuzzed misalignment and requires
// the selected route to return the portable loop's bits; finite
// in-domain inputs must also agree with the naive loop within the
// summation-order error bound.
func FuzzDot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 16*33)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	special := make([]byte, 16*35+1)
	for i := 0; i < 35; i++ {
		binary.LittleEndian.PutUint64(special[16*i:], [...]uint64{0x7ff0000000000000, 0xfff8000000000001, 1, 0x8000000000000000, 0x3ff0000000000000}[i%5])
		binary.LittleEndian.PutUint64(special[16*i+8:], [...]uint64{0, 0xfff0000000000000, 0x000fffffffffffff}[i%3])
	}
	special[len(special)-1] = 0x27
	f.Add(special)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		// The spare trailing byte, when there is one, picks the two
		// misalignments.
		var offA, offB int
		if len(data)%16 != 0 {
			offA, offB = int(data[len(data)-1]&3), int(data[len(data)-1]>>4&3)
		}
		a, b := misalign(make([]float64, n+4), offA), misalign(make([]float64, n+6), offB)
		inDomain := true
		for i := 0; i < n; i++ {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			b[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			// Non-finite values and magnitudes whose product overflows
			// have no meaningful naive bound; the scan's inputs are
			// finite and µV-scale by construction.
			if !(math.Abs(a[i]) <= 1e150 && math.Abs(b[i]) <= 1e150) {
				inDomain = false
			}
		}
		got, want := Dot(a, b), dotPortable(a, b[:n])
		if !sameFloat(got, want) {
			t.Fatalf("Dot = %x, portable = %x (n=%d, a+%d, b+%d)", math.Float64bits(got), math.Float64bits(want), n, offA, offB)
		}
		if naive := naiveDot(a, b); inDomain && math.Abs(got-naive) > dotTol(a, b[:n]) {
			t.Fatalf("Dot = %g, naive = %g (n=%d)", got, naive, n)
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

// BenchmarkKernelDot reports the scan's innermost operation — the
// 256-sample dot behind every ω of the skip walk — on the naive
// single-accumulator loop, the portable route and the route this
// machine selected ("vector" is the AVX2 routine where init chose it;
// elsewhere it repeats portable) — then DotQ, the exact integer dot of
// the walk, on its two routes. (The float rows price Dot, which only the
// benchmark harness's probe still calls.)
func BenchmarkKernelDot(b *testing.B) {
	r := rng.New(1)
	x, y := randVec(r, 256), randVec(r, 256)
	var sink float64
	for _, bc := range []struct {
		name string
		k    func(a, b []float64) float64
	}{{"naive", naiveDot}, {"portable", dotPortable}, {"vector", Dot}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += bc.k(x, y)
			}
		})
	}
	c, d := randCounts(r, 256), randCounts(r, 256)
	var sinkQ int64
	for _, bc := range []struct {
		name string
		k    func(a, b []int16) int64
	}{{"portable-int16", dotqPortable}, {"vector-int16", DotQ}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkQ += bc.k(c, d)
			}
		})
	}
	_, _ = sink, sinkQ
}
