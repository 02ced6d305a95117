package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"emap/internal/rng"
)

func randCounts(r *rng.Source, n int) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(r.Intn(1<<16) - 1<<15)
	}
	return out
}

// rails are the counts the integer dot can trip over: both rails, the
// negative rail's neighbour, and the values whose high or low byte is
// at its own extreme (−1 is h = −1, l = 255; 255 is h = 0, l = 255;
// −256 is h = −1, l = 0).
var rails = []int16{math.MinInt16, math.MaxInt16, -math.MaxInt16, -1, 255, 256, -256, 0x7f00, 0x00ff}

// countsBuffer draws a pass buffer of the given kind: uniform counts,
// rail values only, small counts with constant stretches longer than a
// window (D_c = 0), or a slow oscillation with noise (windows that
// correlate with a query cut from it).
func countsBuffer(r *rng.Source, kind, size, n int) []int16 {
	buf := make([]int16, size)
	for i := range buf {
		switch kind {
		case 1:
			buf[i] = rails[r.Intn(len(rails))]
		case 2:
			buf[i] = int16(r.Intn(9) - 4)
		case 3:
			buf[i] = int16(9000*math.Sin(float64(i)/7) + 300*r.NormFloat64())
		default:
			buf[i] = int16(r.Intn(1<<16) - 1<<15)
		}
	}
	if kind == 2 {
		for range 3 {
			at, v := r.Intn(size-n-40), int16(r.Intn(9)-4)
			for i := at; i < at+n+40; i++ {
				buf[i] = v
			}
		}
	}
	return buf
}

// countsQuery draws a query of the given kind against buf: uniform
// counts, rail values, a window of buf itself riding a DC offset, or a
// constant (D_q = 0).
func countsQuery(r *rng.Source, kind, n int, buf []int16) []int16 {
	q := make([]int16, n)
	at := r.Intn(len(buf) - n)
	for i := range q {
		switch kind {
		case 1:
			q[i] = rails[r.Intn(len(rails))]
		case 2:
			q[i] = buf[at+i]/2 + 12000
		case 3:
			q[i] = -77
		default:
			q[i] = int16(r.Intn(1<<16) - 1<<15)
		}
	}
	return q
}

// omegaQ is the walk's ω over counts written out from Walk's comment:
// plain int64 loops, then the float sequence, every product rounded on
// its own.
func omegaQ(q, c []int16) float64 {
	var sq, sqq, sc, scc, sqc int64
	for i, v := range q {
		x, y := int64(v), int64(c[i])
		sq, sqq, sc, scc, sqc = sq+x, sqq+x*x, sc+y, scc+y*y, sqc+x*y
	}
	n, fq, fc := float64(len(q)), float64(sq), float64(sc)
	dq := float64(n*float64(sqq)) - float64(fq*fq)
	dc := float64(n*float64(scc)) - float64(fc*fc)
	den := math.Sqrt(dq) * math.Sqrt(dc)
	if !(den > 0) {
		return 0
	}
	return (float64(n*float64(sqc)) - float64(fq*fc)) * (1 / den)
}

// scenarioQ is one randomly drawn walk: a shared buffer of counts whose
// prefix sums every lane reads (so windows of different lanes overlap,
// as adjacent sets of one record do), and the means to seat a random
// pass of it.
type scenarioQ struct {
	r    *rng.Source
	n    int
	buf  []int16
	sums [][2]float64
}

func newScenarioQ(r *rng.Source, n int, buf []int16) *scenarioQ {
	sums := make([][2]float64, len(buf)+1)
	Widen(sums, buf)
	return &scenarioQ{r: r, n: n, buf: buf, sums: sums}
}

// seat puts a random pass in lane: up to 300 offsets and, one time in
// eight, an offset already past the last one — the step still evaluates
// where it stands, then reports the lane done.
func (sc *scenarioQ) seat(w *Walk, lane int) {
	r := sc.r
	room := len(sc.buf) - sc.n
	start := r.Intn(room/2 + 1)
	maxOff := r.Intn(min(300, room-start) + 1)
	slack := 0
	if r.Intn(8) == 0 {
		slack = 1 + r.Intn(min(20, room-start-maxOff+1))
		slack = min(slack, room-start-maxOff)
	}
	end := start + maxOff + slack + sc.n
	w.SeatQ(lane, sc.buf[start:end], sc.sums[start:end+1], maxOff)
	if slack > 0 {
		w.group[lane/Lanes].beta[lane%Lanes] = int64(maxOff + slack)
	}
}

// driveBothQ runs w to its end under both routes, call by call, and
// holds every candidate's ω to omegaQ over the window it was taken at. A
// lane that finishes its pass is handed to done, which seats something
// new in it or does not (the lane is then masked). It returns the number
// of candidates and of evaluations.
func driveBothQ(t *testing.T, label string, w *Walk, done func(lane int) bool) (candidates, evals int) {
	t.Helper()
	for calls := 0; ; calls++ {
		if calls > 1<<20 {
			t.Fatalf("%s: the walk does not end", label)
		}
		first, events := runBoth(t, fmt.Sprintf("%s/call %d", label, calls), w)
		if events == 0 {
			return candidates, w.Evals()
		}
		for k := 0; k < Lanes; k++ {
			lane := first + k
			if events>>k&EventCandidate != 0 {
				omega, at := w.Taken(lane)
				if want := omegaQ(w.qc, w.group[lane/Lanes].c[k][at:at+len(w.qc)]); !sameFloat(omega, want) {
					t.Fatalf("%s/call %d: lane %d took ω=%x at %d, the written-out sequence gives %x", label, calls, lane, math.Float64bits(omega), at, math.Float64bits(want))
				}
				candidates++
			}
			if events>>k&EventDone != 0 && !done(lane) {
				w.Mask(lane)
			}
		}
	}
}

// stepQLengths are windows at and past one and several flushes of the
// vector dots' int32 lanes (every 512 counts: 32 blocks of sixteen or 16
// of 32), with and without a leftover block.
var stepQLengths = []int{512, 513, 1000, 2048, 2049, 3000, 4096 + 16, 4096 + 21}

// TestStepQRoutesAgree is TestStepRoutesAgree's sweep over the long
// window lengths, where the vector dot flushes its int32 lanes once or
// several times within a window.
func TestStepQRoutesAgree(t *testing.T) {
	eachRoute(t, func(t *testing.T, _ int) { sweepRoutes(t, stepQLengths, 128) })
}

// TestStepQRailsDoNotOverflow aims at the vector dots' int32 lanes on
// every route: the query is all 0x7fff or all −1 (low byte 255, the
// largest, with either high byte) and the windows all −32 768 or all
// 32 767 — every pair sum of a lane has one sign, so a lane reaches its
// largest magnitude just as it is flushed, and a chunk one block longer
// than its route allows overflows — but for a few counts that keep the
// windows from being constant. 1 100 counts cross three chunks of
// sixteen 32-count blocks. δ = −2 makes every ω a candidate, and every
// one must be the written-out sequence's, whose int64 sums cannot
// overflow.
func TestStepQRailsDoNotOverflow(t *testing.T) { eachRoute(t, stepQRailsDoNotOverflow) }

func stepQRailsDoNotOverflow(t *testing.T, _ int) {
	r := rng.New(41)
	rule := tabledRule(-2, 0.05, 0.8, 0.86)
	for _, n := range []int{512, 512 + 16, 512 + 3, 1100, 2048, 3*2048 + 31} {
		for _, qv := range []int16{math.MaxInt16, -1, math.MinInt16} {
			for _, cv := range []int16{math.MinInt16, math.MaxInt16} {
				q, buf := make([]int16, n), make([]int16, n+40)
				for i := range q {
					q[i] = qv
				}
				for i := range buf {
					buf[i] = cv
				}
				for range 3 {
					q[r.Intn(n)] = rails[r.Intn(len(rails))]
					buf[r.Intn(len(buf))] = rails[r.Intn(len(rails))]
				}
				sc := newScenarioQ(r, n, buf)
				var w Walk
				w.ResetQ(q, rule)
				for lane := 0; lane < 2*Lanes; lane++ {
					w.SeatQ(lane, sc.buf[lane:], sc.sums[lane:], 32)
				}
				label := fmt.Sprintf("n=%d q=%d c=%d", n, qv, cv)
				if c, e := driveBothQ(t, label, &w, func(int) bool { return false }); c != e || e < 2*Lanes {
					t.Fatalf("%s: %d candidates in %d evaluations", label, c, e)
				}
			}
		}
	}
}

// oneStepQ seats up to four single-window lanes in group 0 — lane k's
// window is the len(q) counts wins[k], its envelope envs[k] — with
// MaxOff = β, so the walk's first step reports every lane done and Run
// returns after exactly that step.
func oneStepQ(w *Walk, rule *SkipRule, q []int16, wins [][]int16, envs []float64) {
	const beta = 30
	w.ResetQ(q, rule)
	for k, win := range wins {
		c := make([]int16, beta+len(q))
		copy(c[beta:], win)
		sums := make([][2]float64, len(c)+1)
		Widen(sums, c)
		w.SeatQ(k, c, sums, beta)
		w.group[0].beta[k], w.group[0].env[k] = beta, envs[k]
	}
}

// TestStepQBoundaries walks the rounding boundaries of a step around a
// real ω on both routes, against the comparisons spelled as branches: δ
// one ulp either side of ω, the envelope one ulp either side of |ω|, and
// a skip numerator that puts SkipNum/|ω| + 0.5 on every advance boundary
// and one ulp either side. (TestStepEnvelopeBoundaries does the
// envelope's own boundaries, under constant windows.) On every route,
// over one of its blocks.
func TestStepQBoundaries(t *testing.T) { eachRoute(t, stepQBoundaries) }

func stepQBoundaries(t *testing.T, n int) {
	r := rng.New(43)
	q := randCounts(r, n)
	for trial := 0; trial < 40; trial++ {
		win := randCounts(r, n)
		if trial%2 == 0 { // a window that correlates
			for i := range win {
				win[i] = q[i]/3 + int16(r.Intn(2000)-1000)
			}
		}
		omega := omegaQ(q, win)
		if omega == 0 {
			t.Fatalf("trial %d: ω = 0", trial)
		}
		check := func(label string, rule *SkipRule, env float64) {
			t.Helper()
			var w Walk
			oneStepQ(&w, rule, q, [][]int16{win}, []float64{env})
			_, events := runBoth(t, label, &w)
			candidate, beta, nextEnv := branchMove(rule, omega, env, 30)
			if g := &w.group[0]; !sameFloat(g.omega[0], omega) || (events&EventCandidate != 0) != candidate || g.beta[0] != int64(beta) || !sameFloat(g.env[0], nextEnv) {
				t.Fatalf("%s: ω=%x events=%#x β=%d env=%x, branches ω=%x candidate=%v β=%d env=%x", label,
					math.Float64bits(g.omega[0]), events, g.beta[0], math.Float64bits(g.env[0]), math.Float64bits(omega), candidate, beta, math.Float64bits(nextEnv))
			}
		}
		for _, delta := range []float64{math.Nextafter(omega, -2), omega, math.Nextafter(omega, 2)} {
			for _, env := range []float64{0, math.Nextafter(math.Abs(omega), 0), math.Abs(omega), math.Nextafter(math.Abs(omega), 2)} {
				check(fmt.Sprintf("trial %d δ=%x env=%x", trial, math.Float64bits(delta), math.Float64bits(env)), tabledRule(delta, 0.05, 0.8, 0.86), env)
			}
		}
		const floor = 0.05
		if a := math.Abs(omega); a > floor {
			for _, m := range []int{1, 2, 3, 5, 8, 13} {
				num := a * (float64(m) + 0.5)
				for _, skipNum := range []float64{math.Nextafter(num, 0), num, math.Nextafter(num, math.Inf(1))} {
					check(fmt.Sprintf("trial %d ω=%g advance %d SkipNum=%x", trial, omega, m, math.Float64bits(skipNum)), tabledRule(0.8, floor, skipNum, 0.86), 0)
				}
			}
		}
	}
}

// TestReleaseKeepsOnlyTheSplitBuffer: a released walk references nothing
// of its caller's, and the next ResetQ reuses the split buffer.
func TestReleaseKeepsOnlyTheSplitBuffer(t *testing.T) {
	r := rng.New(47)
	rule := tabledRule(0.8, 0.05, 0.8, 0.86)
	var w Walk
	w.ResetQ(randCounts(r, 300), rule)
	held := cap(w.qsplit)
	w.Release()
	if w.qc != nil || w.rule.Decay != nil || len(w.qsplit) != 0 || cap(w.qsplit) != held {
		t.Fatalf("released walk holds query %v, table %v, split %d/%d (was %d)", w.qc != nil, w.rule.Decay != nil, len(w.qsplit), cap(w.qsplit), held)
	}
	q := randCounts(r, 256)
	if allocs := testing.AllocsPerRun(10, func() { w.ResetQ(q, rule) }); allocs != 0 {
		t.Fatalf("ResetQ into a released walk allocates %.0f times", allocs)
	}
}

// TestDotQRoutesAgree: the route DotQ runs on this machine returns the
// portable loop's sum and the plain loop's — they are integers, so
// exactly — at every length across the block and the flush, at every
// misalignment of either operand, with b longer than a, over uniform
// counts and over the rails.
func TestDotQRoutesAgree(t *testing.T) {
	r := rng.New(53)
	lengths := append(dotLengths(), 2047, 2048, 2049, 2048+16, 3*2048+5)
	for _, n := range lengths {
		for _, kind := range []int{0, 1} {
			for off := 0; off < 4; off++ {
				a, b := countsBuffer(r, kind, n+4, 0)[off:off+n], countsBuffer(r, kind, n+9, 0)[3-off:]
				if kind == 1 && n > 0 {
					// One sign throughout: the int32 lanes at their
					// fullest.
					for i := range a {
						a[i], b[i] = -1, math.MinInt16
					}
					a[r.Intn(n)] = math.MaxInt16
				}
				var want int64
				for i, v := range a {
					want += int64(v) * int64(b[i])
				}
				if got, portable := DotQ(a, b), dotqPortable(a, b[:n]); got != want || portable != want {
					t.Fatalf("DotQ(n=%d kind %d a+%d) = %d, portable = %d, plain loop = %d", n, kind, off, got, portable, want)
				}
			}
		}
	}
	if msg := panicOf(func() { DotQ(make([]int16, 17), make([]int16, 16)) }); msg == "" {
		t.Fatal("DotQ accepted a short b")
	}
}

// FuzzDotQ: arbitrary int16 pairs through DotQ on the selected route
// against the portable loop and the plain one.
func FuzzDotQ(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x80, 0, 0x80, 0xff, 0x7f, 0, 0x80})
	all := make([]byte, 4*2100)
	for i := 0; i < 2100; i++ {
		binary.LittleEndian.PutUint16(all[4*i:], 0x8000)
		binary.LittleEndian.PutUint16(all[4*i+2:], 0x8000)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		a, b := make([]int16, n), make([]int16, n+1)
		var want int64
		for i := 0; i < n; i++ {
			a[i] = int16(binary.LittleEndian.Uint16(data[4*i:]))
			b[i] = int16(binary.LittleEndian.Uint16(data[4*i+2:]))
			want += int64(a[i]) * int64(b[i])
		}
		if got, portable := DotQ(a, b), dotqPortable(a, b[:n]); got != want || portable != want {
			t.Fatalf("DotQ(n=%d) = %d, portable = %d, plain loop = %d", n, got, portable, want)
		}
	})
}

// FuzzStepQ drives one walk from fuzzed bytes: the bytes are the pass
// buffer's counts, the seed draws the window length, the query, the rule
// and the lanes (FuzzStep fuzzes the query). Every vector route this
// machine runs, each alone, must stay == to the portable step through
// the whole walk, and every candidate's ω must be the written-out
// sequence's.
func FuzzStepQ(f *testing.F) {
	f.Add(uint64(1), []byte{})
	ramp := make([]byte, 2*600)
	for i := 0; i < 600; i++ {
		binary.LittleEndian.PutUint16(ramp[2*i:], uint16(i%17*900-8000))
	}
	f.Add(uint64(2), ramp)
	railed := make([]byte, 2*5000)
	for i := 0; i < 5000; i++ {
		binary.LittleEndian.PutUint16(railed[2*i:], uint16(rails[i*i%len(rails)]))
	}
	f.Add(uint64(3), railed)
	f.Add(uint64(9), railed[:2*90])
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		for _, name := range usableRoutes() {
			fuzzStepQ(t, name, seed, data)
		}
	})
}

// fuzzStepQ is FuzzStepQ's walk on the named route.
func fuzzStepQ(t *testing.T, route string, seed uint64, data []byte) {
	defer ForceRoute(route)()
	r := rng.New(seed)
	lengths := slices.Concat(stepQLengths, stepLengths, blockLengths)
	n := lengths[r.Intn(len(lengths))]
	// The fuzzed counts, repeated to fill at least two windows.
	buf := make([]int16, max(len(data)/2, 2*n+8))
	for i := range buf {
		if len(data) >= 2 {
			buf[i] = int16(binary.LittleEndian.Uint16(data[2*(i%(len(data)/2)):]))
		}
	}
	sc := newScenarioQ(r, n, buf)
	rule := tabledRule(r.Range(-1, 1), r.Range(0.01, 0.5), r.Range(0.1, 2), r.Range(0.1, 0.99))
	var w Walk
	w.ResetQ(countsQuery(r, r.Intn(4), n, buf), rule)
	for lane := 0; lane < 2*Lanes; lane++ {
		if lane == 0 || r.Intn(5) != 0 {
			sc.seat(&w, lane)
		}
	}
	refills := r.Intn(6)
	driveBothQ(t, fmt.Sprintf("%s seed %d n=%d", route, seed, n), &w, func(lane int) bool {
		if refills == 0 {
			return false
		}
		refills--
		sc.seat(&w, lane)
		return true
	})
}
