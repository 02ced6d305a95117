package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"emap/internal/rng"
)

// tabledRule is a rule as internal/search builds it: the decay table
// covers every advance the floor allows.
func tabledRule(delta, floor, skipNum, base float64) *SkipRule {
	r := &SkipRule{Delta: delta, Floor: floor, SkipNum: skipNum, DecayBase: base}
	r.Decay = make([]float64, max(int(skipNum/floor+0.5), 1)+1)
	for adv := range r.Decay {
		r.Decay[adv] = DecayPow(base, adv)
	}
	return r
}

// eachRoute runs body once per vector route this platform has, as a
// subtest named for it with that route alone installed (ForceRoute), so
// that the walks body resets on that route are held to the portable
// step; block is the route's block. A route this CPU or OS lacks is a
// skipped subtest that says so. Where the platform has no vector route,
// body runs once, on the portable step, with block 16.
func eachRoute(t *testing.T, body func(t *testing.T, block int)) {
	t.Helper()
	if len(platformRoutes()) == 0 {
		t.Run(portable.name, func(t *testing.T) { body(t, 16) })
	}
	for _, r := range platformRoutes() {
		t.Run(r.name, func(t *testing.T) {
			if !slices.Contains(vector, r) {
				t.Skipf("this CPU or OS does not support the %s route", r.name)
			}
			defer ForceRoute(r.name)()
			body(t, r.block)
		})
	}
}

// usableRoutes names the vector routes this machine runs, or the
// portable step where it runs none: what a fuzz target, which has no
// subtests, loops over.
func usableRoutes() []string {
	if names := Routes()[1:]; len(names) > 0 {
		return names
	}
	return []string{portable.name}
}

// runBoth is one Run of w on the route ResetQ chose for it and one of a
// copy of w on the portable step. The two must report the same group and
// events and leave == state: every lane's offset, envelope, ω and the
// offset it was taken at, both evaluation counts, the live masks and
// whose turn it is. A vector routine's spilled reciprocals must be the
// portable expression's too — +0 where the denominator is not above
// zero.
func runBoth(t *testing.T, label string, w *Walk) (int, uint32) {
	t.Helper()
	ref := *w // the lanes' slices are shared, and only read
	ref.route = &portable
	wantFirst, wantEvents := ref.Run()
	first, events := w.Run()
	if first != wantFirst || events != wantEvents {
		t.Fatalf("%s: Run reported lanes %d… events %#x, portable lanes %d… events %#x", label, first, events, wantFirst, wantEvents)
	}
	if w.turn != ref.turn {
		t.Fatalf("%s: turn %d, portable %d", label, w.turn, ref.turn)
	}
	for gi := range w.group {
		g, p := &w.group[gi], &ref.group[gi]
		if g.evals != p.evals || g.live != p.live || g.nlive != p.nlive || g.liveBits != p.liveBits {
			t.Fatalf("%s: group %d counts %d evals, live %v; portable %d, %v", label, gi, g.evals, g.live, p.evals, p.live)
		}
		for k := range g.c {
			if g.beta[k] != p.beta[k] || g.at[k] != p.at[k] || !sameFloat(g.env[k], p.env[k]) || !sameFloat(g.omega[k], p.omega[k]) {
				t.Fatalf("%s: group %d lane %d: β=%d env=%x ω=%x at %d; portable β=%d env=%x ω=%x at %d", label, gi, k,
					g.beta[k], math.Float64bits(g.env[k]), math.Float64bits(g.omega[k]), g.at[k],
					p.beta[k], math.Float64bits(p.env[k]), math.Float64bits(p.omega[k]), p.at[k])
			}
			// Only the group that reported has just stepped every lane
			// it holds.
			if w.route == &portable || gi != first/Lanes || g.live[k] == 0 {
				continue
			}
			lo, hi := g.sums[k][g.at[k]], g.sums[k][g.at[k]+int64(w.nf)]
			sum, sumSq := hi[0]-lo[0], hi[1]-lo[1]
			rden := 0.0
			if d := w.rq * math.Sqrt(float64(w.nf*sumSq)-float64(sum*sum)); d > 0 {
				rden = 1 / d
			}
			if !sameFloat(g.spill[k], rden) {
				t.Fatalf("%s: group %d lane %d: spilled reciprocal %x, portable expression %x", label, gi, k, math.Float64bits(g.spill[k]), math.Float64bits(rden))
			}
		}
	}
	return first, events
}

// stepLengths are the short window lengths the step is swept over: no
// full block, one short of a block, exactly one, one over, and the
// scan's own 256 with a neighbour either side. (stepQLengths are the
// long ones, at and past the vector dot's flushes; blockLengths those
// of the 32-count block.)
var stepLengths = []int{1, 15, 16, 17, 255, 256, 257}

// blockLengths are the window lengths of the 32-count block: exactly
// one, one over, one and a half, one short of two, the scan's 256 and
// its neighbours, one chunk of sixteen blocks and its neighbours, and
// lengths past two chunks, with a leftover.
var blockLengths = []int{32, 33, 47, 63, 255, 256, 257, 511, 512, 513, 1000, 1100}

// sweepRoutes is the body of TestStepRoutesAgree and TestStepQRoutesAgree
// over the given window lengths: random walks with every kind of pass
// buffer and of query, any δ, lanes masked from the start, lanes that
// start past their last offset, lanes reseated mid-walk.
func sweepRoutes(t *testing.T, lengths []int, seeds uint64) {
	candidates, evals := 0, 0
	for seed := uint64(0); seed < seeds; seed++ {
		r := rng.New(seed)
		n := lengths[int(seed)%len(lengths)]
		kind, qkind := int(seed/uint64(len(lengths)))%4, int(seed/uint64(4*len(lengths)))%4
		buf := countsBuffer(r, kind, 2*n+700, n)
		sc := newScenarioQ(r, n, buf)
		rule := tabledRule([...]float64{0.8, 0.3, 0, -0.5}[r.Intn(4)], [...]float64{0.05, 0.3, 0.011}[r.Intn(3)], 0.8, 0.86)
		var w Walk
		w.ResetQ(countsQuery(r, qkind, n, buf), rule)
		if !w.tabled {
			t.Fatalf("seed %d: rule %+v is not tabled", seed, rule)
		}
		if qkind == 3 && w.rq != 0 {
			t.Fatalf("seed %d: a constant query has √D_q = %g", seed, w.rq)
		}
		seated := 0
		for lane := 0; lane < 2*Lanes; lane++ {
			if seed%5 != 4 || r.Intn(4) != 0 || seated == 0 && lane == 2*Lanes-1 {
				sc.seat(&w, lane)
				seated++
			}
		}
		refills := r.Intn(12)
		c, e := driveBothQ(t, fmt.Sprintf("seed %d n=%d kind %d query %d", seed, n, kind, qkind), &w, func(lane int) bool {
			if refills == 0 {
				return false
			}
			refills--
			sc.seat(&w, lane)
			return true
		})
		candidates += c
		evals += e
	}
	t.Logf("%d candidates in %d evaluations", candidates, evals)
	if candidates < 1000 {
		t.Fatalf("only %d candidates over the whole sweep — the comparison is near-vacuous", candidates)
	}
}

// TestStepRoutesAgree: the route this machine runs (the AVX2 routine on
// an amd64 that has it) is the portable step — == on every output field
// after every call — and every candidate's ω is the written-out
// sequence's, over random walks at every short window length
// (stepLengths; a query under one block never reaches the vector
// routine, which the sweep shows by agreeing): uniform counts, rails in
// both operands, constant windows (D_c = 0) and constant queries
// (D_q = 0), DC-offset queries that correlate, any δ (so every mix of
// candidate and done bits is reported), lanes masked from the start,
// lanes that start past their last offset, lanes reseated mid-walk and
// lanes left masked while the others go on, down to one live lane and
// one live group. TestStepQRoutesAgree is the same sweep over the long
// lengths.
func TestStepRoutesAgree(t *testing.T) {
	eachRoute(t, func(t *testing.T, _ int) { sweepRoutes(t, stepLengths, 224) })
}

// TestStepBlockGeometry is the same sweep over blockLengths, where the
// AVX-512 route's 32-count blocks, its leftover block and its chunks of
// sixteen blocks fall.
func TestStepBlockGeometry(t *testing.T) {
	eachRoute(t, func(t *testing.T, _ int) { sweepRoutes(t, blockLengths, 16*12) })
}

// walkWindows seats four lanes of group 0 on four windows of buf that
// overlap and sit at every 2-byte misalignment against a 32-byte
// boundary — adjacent offsets of one record, which is what the lanes of
// a scan hold — and the other group on the same windows shifted by one
// count, and walks them on both routes with every ω a candidate, so
// each lane's dot is held to the written-out sequence.
func walkWindows(t *testing.T, label string, q, buf []int16) {
	t.Helper()
	n := len(q)
	sums := make([][2]float64, len(buf)+1)
	Widen(sums, buf)
	var w Walk
	w.ResetQ(q, tabledRule(-2, 0.05, 0.8, 0.86))
	for lane, start := range [...]int{0, 1, 3, n/2 + 2, 1, 2, 4, n/2 + 3} {
		w.SeatQ(lane, buf[start:start+n+2], sums[start:start+n+3], 2)
	}
	if c, e := driveBothQ(t, label, &w, func(int) bool { return false }); c != e || e < 2*Lanes {
		t.Fatalf("%s: %d candidates in %d evaluations", label, c, e)
	}
}

// TestDot4MatchesDot: for every n in 1…300 — every leftover of a 16- or
// 32-count block, with and without whole blocks — the step's four-window
// dot gives each of its windows the ω of the written-out sequence on
// every route, and DotQ gives the plain loop's sum, with the query at
// every misalignment and the windows unaligned and overlapping.
// (TestStepRoutesAgree sweeps seven lengths at random; this is the
// leftover block at every length.)
func TestDot4MatchesDot(t *testing.T) { eachRoute(t, dot4MatchesDot) }

func dot4MatchesDot(t *testing.T, _ int) {
	r := rng.New(17)
	for n := 1; n <= 300; n++ {
		for mis := 0; mis < 4; mis++ {
			q, buf := randCounts(r, n+4)[mis:mis+n], randCounts(r, 2*n+12)[(mis+1)%4:]
			walkWindows(t, fmt.Sprintf("n=%d q+%d", n, mis), q, buf)
			var want int64
			for i, v := range q {
				want += int64(v) * int64(buf[i])
			}
			if got := DotQ(q, buf); got != want {
				t.Fatalf("n=%d q+%d: DotQ = %d, plain loop %d", n, mis, got, want)
			}
		}
	}
}

// specialLengths place a count at every position of a 16- and a 32-count
// block and of a leftover of either.
var specialLengths = []int{1, 15, 16, 17, 32, 33, 50, 63}

// TestDot4SpecialValues plants the counts the integer dot can trip over
// (rails: both rails, and every value whose high or low byte is at its
// own extreme) in the shared buffer of the four windows, at every
// position of a block and of a leftover: each window's ω must still be
// the written-out sequence's, on every route.
func TestDot4SpecialValues(t *testing.T) { eachRoute(t, dot4SpecialValues) }

func dot4SpecialValues(t *testing.T, _ int) {
	r := rng.New(19)
	for _, n := range specialLengths {
		for pos := 0; pos < n; pos++ {
			for _, sv := range rails {
				buf := randCounts(r, 2*n+12)
				buf[pos], buf[(pos+n/2+7)%len(buf)] = sv, sv
				walkWindows(t, fmt.Sprintf("n=%d pos=%d special=%d", n, pos, sv), randCounts(r, n), buf)
			}
		}
	}
}

// TestStepSpecialValues plants the rails in the QUERY, at every position
// of a block and of a leftover — splitQuery cuts each count into a high
// and a low byte, and the leftover counts into a block of their own read
// against the window's last block of counts, so where a rail sits decides
// which partial sums it joins — and walks eight overlapping passes under
// it on every route and the portable step.
func TestStepSpecialValues(t *testing.T) { eachRoute(t, stepSpecialValues) }

func stepSpecialValues(t *testing.T, _ int) {
	r := rng.New(29)
	for _, n := range specialLengths {
		for pos := 0; pos < n; pos++ {
			for si, sv := range rails {
				q := randCounts(r, n)
				q[pos], q[(pos+5)%n] = sv, rails[(si+pos)%len(rails)]
				walkWindows(t, fmt.Sprintf("n=%d pos=%d special=%d", n, pos, sv), q, randCounts(r, 2*n+12))
			}
		}
	}
}

// branchMove is what follows ω in one lane's step as the single-cursor
// loop spelled it before the lanes and before the kernel: the envelope's
// running maximum and the skip rule's floor are comparisons and
// branches, the decay is DecayPow. It is the reference the step's
// selects are pinned to.
func branchMove(r *SkipRule, omega, env float64, beta int) (candidate bool, nextBeta int, nextEnv float64) {
	if a := math.Abs(omega); a > env {
		env = a
	}
	floored := env
	if floored < r.Floor {
		floored = r.Floor
	}
	adv := int(r.SkipNum/floored + 0.5)
	if adv < 1 {
		adv = 1
	}
	return omega > r.Delta, beta + adv, env * DecayPow(r.DecayBase, adv)
}

// TestStepSelectsMatchBranches: the portable step's max() selects, and
// the vector step's masks and VMAXPDs, leave a lane exactly where the
// comparisons they replaced would — for every ω counts can produce on
// either side of the envelope, of the floor and of δ: +1 (the window is
// the query), −1 (its negation), +0 (a constant window, and a constant
// query), small and middling correlations of either sign — against
// envelopes from +0 to +Inf, under tabled rules and one with no table;
// on every route, over one of its blocks.
func TestStepSelectsMatchBranches(t *testing.T) { eachRoute(t, stepSelectsMatchBranches) }

func stepSelectsMatchBranches(t *testing.T, n int) {
	r := rng.New(61)
	q := make([]int16, n)
	for i := range q {
		q[i] = int16(r.Intn(40000) - 20000)
	}
	neg, flat := make([]int16, n), make([]int16, n)
	for i, v := range q {
		neg[i], flat[i] = -v, 77
	}
	wins := [][]int16{q, neg, flat}
	for _, mix := range []int{1, 4, 20, 200} { // the query under ever more noise
		for _, sign := range []int16{1, -1} {
			win := make([]int16, n)
			for i, v := range q {
				win[i] = sign*(v/int16(mix)) + int16(r.Intn(3000)-1500)
			}
			wins = append(wins, win)
		}
	}
	envs := []float64{0, 1e-12, 0.01, 0.05, 0.2, 0.6, 1, math.Inf(1)}
	seen := map[string]bool{}
	for _, rule := range []*SkipRule{tabledRule(0.8, 0.05, 0.8, 0.86), tabledRule(0.8, 0.3, 0.8, 0.86), tabledRule(0.3, 0.011, 0.8, 0.5),
		{Delta: 0.8, Floor: 1e-4, SkipNum: 0.8, DecayBase: 0.86}} {
		for wi, win := range wins {
			omega := omegaQ(q, win)
			for _, env := range envs {
				for _, query := range [][]int16{q, flat} {
					want := omega
					if &query[0] == &flat[0] {
						want = 0 // D_q = 0
					}
					var w Walk
					oneStepQ(&w, rule, query, [][]int16{win}, []float64{env})
					label := fmt.Sprintf("floor=%g window %d ω=%g env=%g", rule.Floor, wi, want, env)
					_, events := runBoth(t, label, &w)
					g := &w.group[0]
					candidate, beta, nextEnv := branchMove(rule, want, env, 30)
					if !sameFloat(g.omega[0], want) || (events&EventCandidate != 0) != candidate || events&EventDone == 0 ||
						g.at[0] != 30 || g.beta[0] != int64(beta) || !sameFloat(g.env[0], nextEnv) || g.evals != 1 {
						t.Fatalf("%s: step left ω=%x events=%#x β=%d env=%x after %d evaluations, branches ω=%x candidate=%v β=%d env=%x",
							label, math.Float64bits(g.omega[0]), events, g.beta[0], math.Float64bits(g.env[0]), g.evals,
							math.Float64bits(want), candidate, beta, math.Float64bits(nextEnv))
					}
					a := math.Abs(want)
					seen[fmt.Sprint(a > env, max(a, env) > rule.Floor, candidate)] = true
				}
			}
		}
	}
	// δ ≥ Floor in every rule above, so a candidate is always over the
	// floor: six of the eight ways the three comparisons can fall exist.
	if len(seen) != 6 {
		t.Fatalf("the table reaches %d of the 6 ways the three comparisons can fall: %v", len(seen), seen)
	}
}

// TestStepEnvelopeBoundaries walks the skip rule's rounding boundaries
// on both routes, against the comparisons spelled as branches. Constant
// windows (ω = +0) leave the envelope to decide the advance alone: for
// every advance m the table holds, the envelope at which SkipNum/env +
// 0.5 reaches m+1 and its neighbours either side; the floor and its
// neighbours; +0 and +Inf. (TestStepQBoundaries does the same around a
// real ω.) On every route, over one of its blocks.
func TestStepEnvelopeBoundaries(t *testing.T) { eachRoute(t, stepEnvelopeBoundaries) }

func stepEnvelopeBoundaries(t *testing.T, n int) {
	r := rng.New(43)
	q, flat := randCounts(r, n), make([]int16, n)
	for _, rule := range []*SkipRule{tabledRule(0.8, 0.05, 0.8, 0.86), tabledRule(0.8, 0.0002, 0.8, 0.99), tabledRule(0.5, 0.3, 4, 0.5)} {
		var envs []float64
		for m := 1; m < len(rule.Decay); m++ {
			e := rule.SkipNum / (float64(m) + 0.5)
			envs = append(envs, math.Nextafter(e, 0), e, math.Nextafter(e, 1))
		}
		envs = append(envs, math.Nextafter(rule.Floor, 0), rule.Floor, math.Nextafter(rule.Floor, 1), 0, math.Inf(1))
		for len(envs)%Lanes != 0 {
			envs = append(envs, 0)
		}
		for i := 0; i < len(envs); i += Lanes {
			var w Walk
			oneStepQ(&w, rule, q, [][]int16{flat, flat, flat, flat}, envs[i:i+Lanes])
			label := fmt.Sprintf("floor=%g envs=%v", rule.Floor, envs[i:i+Lanes])
			runBoth(t, label, &w)
			for k := 0; k < Lanes; k++ {
				_, beta, nextEnv := branchMove(rule, 0, envs[i+k], 30)
				if g := &w.group[0]; g.beta[k] != int64(beta) || !sameFloat(g.env[k], nextEnv) || !sameFloat(g.omega[k], 0) {
					t.Fatalf("%s lane %d: ω=%x β=%d env=%x, branches β=%d env=%x", label, k, math.Float64bits(g.omega[k]), g.beta[k], math.Float64bits(g.env[k]), beta, math.Float64bits(nextEnv))
				}
			}
		}
	}
}

// TestStepUntabledRunsPortable: a rule whose floor allows advances past
// its table (or that has no table) never reaches a vector route — its
// gather has no bounds check — and the portable step serves it with
// DecayPow.
func TestStepUntabledRunsPortable(t *testing.T) {
	trap := &route{name: "trap", block: 1, step: func(*Walk, *group, *group) (int, uint32) {
		t.Fatal("an untabled walk reached a vector route")
		return 0, 0
	}}
	defer func(all []*route) { vector = all }(vector)
	vector = []*route{trap}
	r := rng.New(31)
	sc := newScenarioQ(r, 64, randCounts(r, 900))
	short := tabledRule(0.3, 0.05, 0.8, 0.86)
	short.Decay = short.Decay[:len(short.Decay)-1]
	for _, rule := range []*SkipRule{{Delta: 0.3, Floor: 1e-4, SkipNum: 0.8, DecayBase: 0.86}, short,
		{Delta: 0.3, Floor: 0, SkipNum: 0.8, DecayBase: 0.86, Decay: short.Decay}} {
		var w Walk
		w.ResetQ(randCounts(r, 64), rule)
		if w.tabled {
			t.Fatalf("rule %+v counts as tabled", rule)
		}
		for lane := 0; lane < 2*Lanes; lane++ {
			w.SeatQ(lane, sc.buf[lane:lane+800], sc.sums[lane:lane+801], 700)
		}
		for {
			first, events := w.Run()
			if events == 0 {
				break
			}
			for k := 0; k < Lanes; k++ {
				if events>>k&EventDone != 0 {
					w.Mask(first + k)
				}
			}
		}
		if w.Evals() < 2*Lanes {
			t.Fatalf("rule %+v: %d evaluations", rule, w.Evals())
		}
	}
}

// TestResetQPicksRoute: ResetQ gives a tabled walk the widest route
// whose block its query fills — on a machine with both vector routes,
// the portable step below 16 counts, AVX2 from 16 to 31 and AVX-512 VNNI
// from 32 — and splits the query at that route's block; an untabled walk
// takes the portable step at any length.
func TestResetQPicksRoute(t *testing.T) {
	r := rng.New(67)
	rule, untabled := tabledRule(0.8, 0.05, 0.8, 0.86), &SkipRule{Delta: 0.8, Floor: 1e-4, SkipNum: 0.8, DecayBase: 0.86}
	for n := 1; n <= 1100; n += 1 + n/40 {
		want := &portable
		for _, v := range vector {
			if n >= v.block {
				want = v
			}
		}
		if slices.Equal(Routes(), []string{"portable", "avx2", "avx512vnni"}) {
			if name := [...]string{"portable", "avx2", "avx512vnni"}[min(n/16, 2)]; want.name != name {
				t.Fatalf("n=%d: the widest route that fits is %s, want %s", n, want.name, name)
			}
		}
		q := randCounts(r, n)
		var w Walk
		w.ResetQ(q, rule)
		if w.route != want {
			t.Fatalf("n=%d: ResetQ chose the %s route, want %s", n, w.route.name, want.name)
		}
		if got := splitQuery(nil, q, want.block); !slices.Equal(w.qsplit, got) || want.block > 0 && len(got) != 2*want.block*((n+want.block-1)/want.block) {
			t.Fatalf("n=%d: split %d counts for the %s route", n, len(w.qsplit), want.name)
		}
		if w.ResetQ(q, untabled); w.route != &portable {
			t.Fatalf("n=%d: an untabled walk took the %s route", n, w.route.name)
		}
	}
	t.Logf("routes on this machine: %v", Routes())
}

// TestRunRefusesShortPass: a live lane whose pass does not reach its
// last offset's window — in counts or in prefix sums — or whose offset
// is negative is refused by Run before any route reads through it; a
// masked lane is never looked at.
func TestRunRefusesShortPass(t *testing.T) {
	rule := tabledRule(0.8, 0.05, 0.8, 0.86)
	c := make([]int16, 100)
	sums := make([][2]float64, 101)
	for name, seat := range map[string]func(w *Walk){
		"short counts": func(w *Walk) { w.SeatQ(5, c[:99], sums, 84) },
		"short sums":   func(w *Walk) { w.SeatQ(5, c, sums[:100], 84) },
		"offset past the pass": func(w *Walk) {
			w.SeatQ(5, c, sums, 10)
			w.group[1].beta[1] = 85
		},
		"negative offset": func(w *Walk) {
			w.SeatQ(5, c, sums, 10)
			w.group[1].beta[1] = -1
		},
	} {
		var w Walk
		w.ResetQ(make([]int16, 16), rule)
		w.SeatQ(0, c, sums, 84)
		seat(&w)
		if msg := panicOf(func() { w.Run() }); msg == "" {
			t.Fatalf("%s: Run accepted the lane", name)
		}
		w.Mask(5)
		if msg := panicOf(func() { w.Run() }); msg != "" {
			t.Fatalf("%s: Run refused a masked lane: %s", name, msg)
		}
	}
}

// FuzzStep drives one walk from fuzzed bytes taken as the QUERY's
// counts — what splitQuery cuts into high and low bytes, whole blocks
// and a leftover block — over a pass the seed draws along with the rule
// and the lanes (FuzzStepQ fuzzes the pass under a drawn query). Every
// vector route this machine runs, each alone, must stay == to the
// portable step through the whole walk, and every candidate's ω must be
// the written-out sequence's.
func FuzzStep(f *testing.F) {
	f.Add(uint64(1), []byte{})
	ramp := make([]byte, 2*300)
	for i := 0; i < 300; i++ {
		binary.LittleEndian.PutUint16(ramp[2*i:], uint16(i%17*900-8000))
	}
	f.Add(uint64(2), ramp)
	railed := make([]byte, 2*1100)
	for i := 0; i < 1100; i++ {
		binary.LittleEndian.PutUint16(railed[2*i:], uint16(rails[i*i%len(rails)]))
	}
	f.Add(uint64(3), railed)
	f.Add(uint64(17), railed[:2*21])
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		for _, name := range usableRoutes() {
			fuzzStep(t, name, seed, data)
		}
	})
}

// fuzzStep is FuzzStep's walk on the named route.
func fuzzStep(t *testing.T, route string, seed uint64, data []byte) {
	defer ForceRoute(route)()
	r := rng.New(seed)
	// The fuzzed counts are the query, up to 4 117 of them (past
	// eight flushes of the vector dot, with a leftover); with fewer
	// than one the seed draws a length and the query is all zero.
	n := min(len(data)/2, 4096+21)
	if n == 0 {
		n = stepLengths[r.Intn(len(stepLengths))]
	}
	q := make([]int16, n)
	for i := range q {
		if len(data) >= 2*n {
			q[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
		}
	}
	buf := countsBuffer(r, r.Intn(4), 2*n+700, n)
	if r.Intn(2) == 0 {
		// Plant the query in the pass, so that some ω is near 1.
		copy(buf[r.Intn(len(buf)-n):], q)
	}
	sc := newScenarioQ(r, n, buf)
	rule := tabledRule(r.Range(-1, 1), r.Range(0.01, 0.5), r.Range(0.1, 2), r.Range(0.1, 0.99))
	var w Walk
	w.ResetQ(q, rule)
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

// BenchmarkKernelStep reports the scan's unit of work — one ω
// evaluation of the skip walk, sums, dot, envelope and skip included —
// on each route this machine runs (portable, avx2, avx512vnni): eight
// lanes over 1 255-count passes of a one-second query,
// every finished lane reseated, as a lone query's scan keeps them.
// (Uniform counts, so short envelopes and long skips: the rows price the
// step, not a scan — BenchmarkWalkRoutes does that.)
func BenchmarkKernelStep(b *testing.B) {
	r := rng.New(1)
	const n, maxOff, passes = 256, 999, 64
	counts, qc := randCounts(r, 8*(maxOff+n)), randCounts(r, n)
	csums := make([][2]float64, len(counts)+1)
	Widen(csums, counts)
	rule := tabledRule(0.8, 0.05, 0.8, 0.86)
	for _, name := range Routes() {
		b.Run(name, func(b *testing.B) {
			defer ForceRoute(name)()
			seat := func(w *Walk, lane, pass int) {
				start := pass % 8 * (maxOff + n) / 2
				w.SeatQ(lane, counts[start:start+maxOff+n], csums[start:start+maxOff+n+1], maxOff)
			}
			w := new(Walk)
			evals := 0
			for i := 0; i < b.N; i++ {
				w.ResetQ(qc, rule)
				next := 0
				for ; next < 2*Lanes; next++ {
					seat(w, next, next)
				}
				for {
					first, events := w.Run()
					if events == 0 {
						break
					}
					for k := 0; k < Lanes; k++ {
						if events>>k&EventDone == 0 {
							continue
						}
						if next < passes {
							seat(w, first+k, next)
							next++
						} else {
							w.Mask(first + k)
						}
					}
				}
				evals += w.Evals()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
		})
	}
}
