package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"emap/internal/rng"
)

// prefixSums builds sums[i] = {Σ x[:i], Σ x[:i]²} the way
// dsp.SlidingStats does (and, for integer-valued x, Widen).
func prefixSums(x []float64) [][2]float64 {
	sums := make([][2]float64, len(x)+1)
	var sum, sumSq float64
	for i, v := range x {
		sum += v
		sumSq += v * v
		sums[i+1] = [2]float64{sum, sumSq}
	}
	return sums
}

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

// runPortable is w.Run with both tabled steps forced onto the portable
// route.
func runPortable(w *Walk) (int, uint32) {
	defer StepPortable()()
	return w.Run()
}

// spillIsDen is set where the selected routes are the vector routines,
// which leave each lane's denominator (over counts: its reciprocal) in
// group.spill: the one intermediate runBoth can hold them to as well.
var spillIsDen bool

// vectorServes reports whether w's Run goes to a route init may have
// replaced: a tabled rule and, over counts, a query of at least a block.
func vectorServes(w *Walk) bool {
	return w.tabled && (!w.quant || len(w.qc) >= splitBlock)
}

// runBoth is one Run of w on the route this machine selected and one of
// a copy of w on the portable step. The two must report the same group
// and events and leave == state: every lane's offset, envelope, ω and
// the offset it was taken at, both evaluation counts, the live masks and
// whose turn it is. The vector routines' spilled denominators must be the
// portable expression's too — NaN where it is NaN, −0 where it is −0 —
// though ω hides the difference (both fail the gate).
func runBoth(t *testing.T, label string, w *Walk) (int, uint32) {
	t.Helper()
	ref := *w // the lanes' slices are shared, and only read
	wantFirst, wantEvents := runPortable(&ref)
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
		for k := range g.x {
			if g.beta[k] != p.beta[k] || g.at[k] != p.at[k] || !sameFloat(g.env[k], p.env[k]) || !sameFloat(g.omega[k], p.omega[k]) {
				t.Fatalf("%s: group %d lane %d: β=%d env=%x ω=%x at %d; portable β=%d env=%x ω=%x at %d", label, gi, k,
					g.beta[k], math.Float64bits(g.env[k]), math.Float64bits(g.omega[k]), g.at[k],
					p.beta[k], math.Float64bits(p.env[k]), math.Float64bits(p.omega[k]), p.at[k])
			}
			// Only the group that reported has just stepped every lane
			// it holds.
			if !spillIsDen || !vectorServes(w) || gi != first/Lanes || g.live[k] == 0 {
				continue
			}
			lo, hi := g.sums[k][g.at[k]], g.sums[k][g.at[k]+int64(w.nf)]
			sum, sumSq := hi[0]-lo[0], hi[1]-lo[1]
			den := g.scale[k] * windowNorm(sum, sumSq, w.nf)
			if w.quant {
				// Over counts the spill is the reciprocal, +0 unless
				// den > 0.
				if d := w.rq * math.Sqrt(float64(w.nf*sumSq)-float64(sum*sum)); d > 0 {
					den = 1 / d
				} else {
					den = 0
				}
			}
			if !sameFloat(g.spill[k], den) {
				t.Fatalf("%s: group %d lane %d: spilled denominator %x, portable expression %x", label, gi, k, math.Float64bits(g.spill[k]), math.Float64bits(den))
			}
		}
	}
	return first, events
}

// driveBoth runs w to its end under both routes, call by call. A lane
// that finishes its pass is handed to done, which seats something new in
// it or does not (the lane is then masked). It returns every candidate ω
// in the order reported and the number of evaluations.
func driveBoth(t *testing.T, label string, w *Walk, done func(lane int) bool) (omegas []float64, evals int) {
	t.Helper()
	for calls := 0; ; calls++ {
		if calls > 1<<20 {
			t.Fatalf("%s: the walk does not end", label)
		}
		first, events := runBoth(t, fmt.Sprintf("%s/call %d", label, calls), w)
		if events == 0 {
			return omegas, w.Evals()
		}
		for k := 0; k < Lanes; k++ {
			if events>>k&EventCandidate != 0 {
				omega, _ := w.Taken(first + k)
				omegas = append(omegas, omega)
			}
			if lane := first + k; events>>k&EventDone != 0 && !done(lane) {
				w.Mask(lane)
			}
		}
	}
}

// stepLengths are the window lengths the step is swept over: no full
// block, one short of a block, exactly one, one over, and the scan's own
// 256 with a neighbour either side.
var stepLengths = []int{1, 15, 16, 17, 255, 256, 257}

// scenario is one randomly drawn walk: a shared sample buffer whose
// prefix sums every lane reads (so windows of different lanes overlap,
// as adjacent sets of one record do), and the means to seat a random
// pass of it.
type scenario struct {
	r    *rng.Source
	n    int
	buf  []float64
	sums [][2]float64
}

func newScenario(r *rng.Source, n int, buf []float64) *scenario {
	return &scenario{r: r, n: n, buf: buf, sums: prefixSums(buf)}
}

// seat puts a random pass in lane: up to 300 offsets, any scale, and one
// time in eight an offset already past the last one — the step still
// evaluates where it stands, then reports the lane done.
func (sc *scenario) seat(w *Walk, lane int) {
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
	scale := [...]float64{1, 0.02, 0.25, 3}[r.Intn(4)]
	w.Seat(lane, sc.buf[start:end], sc.sums[start:end+1], scale, maxOff)
	if slack > 0 {
		w.group[lane/Lanes].beta[lane%Lanes] = int64(maxOff + slack)
	}
}

// sampleBuffer draws a buffer of the given kind: µV-scale noise, the
// integer counts of a quantized pass, noise with non-finite samples
// planted in it (every window norm at or after one is NaN), or noise
// with constant stretches longer than a window (den < 1e-12).
func sampleBuffer(r *rng.Source, kind, size, n int) []float64 {
	buf := make([]float64, size)
	for i := range buf {
		if kind == 1 {
			buf[i] = float64(int16(r.Intn(1<<16) - 1<<15))
		} else {
			buf[i] = r.NormFloat64() * 100
		}
	}
	switch kind {
	case 2:
		for range 3 {
			buf[size/3+r.Intn(size/2)] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		}
	case 3:
		for range 3 {
			at, v := r.Intn(size-n-40), float64(r.Intn(9)-4)
			for i := at; i < at+n+40; i++ {
				buf[i] = v
			}
		}
	}
	return buf
}

// TestStepRoutesAgree: the route this machine runs (the AVX2 routine on
// an amd64 that has it) is the portable step — == on every output field
// after every call — over random walks at every window length of
// stepLengths: noise, counts, NaN and ±Inf samples, constant windows,
// overlapping windows, any δ (so every mix of candidate and done bits is
// reported), lanes masked from the start, lanes that start past their
// last offset, lanes reseated mid-walk and lanes left masked while the
// others go on, down to one live lane and one live group.
func TestStepRoutesAgree(t *testing.T) {
	candidates, evals := 0, 0
	for seed := uint64(0); seed < 160; seed++ {
		r := rng.New(seed)
		n := stepLengths[int(seed)%len(stepLengths)]
		kind := int(seed/7) % 4
		sc := newScenario(r, n, sampleBuffer(r, kind, 2*n+700, n))
		rule := tabledRule([...]float64{0.8, 0.3, 0, -0.5}[r.Intn(4)], [...]float64{0.05, 0.3, 0.011}[r.Intn(3)], 0.8, 0.86)
		var w Walk
		w.Reset(randVec(r, n), rule)
		if !w.tabled {
			t.Fatalf("seed %d: rule %+v is not tabled", seed, rule)
		}
		seated := 0
		for lane := 0; lane < 2*Lanes; lane++ {
			if seed%5 != 4 || r.Intn(4) != 0 || seated == 0 && lane == 2*Lanes-1 {
				sc.seat(&w, lane)
				seated++
			}
		}
		refills := r.Intn(12)
		omegas, e := driveBoth(t, fmt.Sprintf("seed %d n=%d kind %d", seed, n, kind), &w, func(lane int) bool {
			if refills == 0 {
				return false
			}
			refills--
			sc.seat(&w, lane)
			return true
		})
		candidates += len(omegas)
		evals += e
	}
	t.Logf("%d candidates in %d evaluations", candidates, evals)
	if candidates < 1000 {
		t.Fatalf("only %d candidates over the whole sweep — the comparison is near-vacuous", candidates)
	}
}

// TestStepSpecialValues plants TestDotSpecialValues' non-finite,
// denormal, signed-zero and overflowing inputs in the query and in the
// shared buffer of the lanes, at every position of a block and a tail,
// and walks eight overlapping passes over them on both routes.
func TestStepSpecialValues(t *testing.T) {
	r := rng.New(29)
	rule := tabledRule(0.3, 0.05, 0.8, 0.86)
	for _, n := range []int{1, 15, 16, 17, 33, 50} {
		for pos := 0; pos < n; pos++ {
			for si, sv := range specials {
				q, buf := randVec(r, n), randVec(r, 2*n+40)
				q[pos] = sv
				buf[(pos+7)%len(buf)] = specials[(si+pos)%len(specials)]
				sums := prefixSums(buf)
				var w Walk
				w.Reset(q, rule)
				for lane := 0; lane < 2*Lanes; lane++ {
					start, maxOff := lane*n/8, 12+lane
					w.Seat(lane, buf[start:start+maxOff+n], sums[start:start+maxOff+n+1], 1, maxOff)
				}
				driveBoth(t, fmt.Sprintf("n=%d pos=%d special=%g", n, pos, sv), &w, func(int) bool { return false })
			}
		}
	}
}

// oneStep seats up to four single-window lanes in group 0 — lane k's
// window is the one sample dots[k], its norm² d2s[k] (planted straight
// into the prefix sums), its envelope envs[k] — with MaxOff = β, so the
// walk's first step reports every lane done and Run returns after
// exactly that step.
func oneStep(w *Walk, rule *SkipRule, scale float64, dots, d2s, envs []float64) {
	const beta = 30
	w.Reset([]float64{1}, rule)
	for k := range dots {
		x, sums := make([]float64, beta+1), make([][2]float64, beta+2)
		x[beta], sums[beta+1] = dots[k], [2]float64{0, d2s[k]}
		w.Seat(k, x, sums, scale, beta)
		w.group[0].beta[k], w.group[0].env[k] = beta, envs[k]
	}
}

// branchStep is one lane's step as the single-cursor loop spelled it
// before the lanes and before the kernel: the envelope's running maximum
// and the skip rule's floor are comparisons and branches, the decay is
// DecayPow. It is the reference the step's selects are pinned to.
func branchStep(r *SkipRule, scale, dot, d2, env float64, beta int) (omega float64, candidate bool, nextBeta int, nextEnv float64) {
	if d2 < 0 {
		d2 = 0
	}
	if den := scale * math.Sqrt(d2); den >= 1e-12 {
		omega = scale * dot / den
	}
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
	return omega, omega > r.Delta, beta + adv, env * DecayPow(r.DecayBase, adv)
}

// TestStepSelectsMatchBranches: the portable step's max() selects, and
// the vector step's masks and VMAXPDs, leave a lane exactly where the
// comparisons they replaced would — for ordinary ω on either side of the
// envelope and of the floor, for ω = ±0, for the non-finite ω a corrupt
// sample could produce (+Inf and −Inf saturate the envelope, NaN leaves
// it unchanged), and for every norm the clamp and the 1e-12 gate see:
// zero, tiny, negative (cancellation), −0, NaN, +Inf.
func TestStepSelectsMatchBranches(t *testing.T) {
	dots := []float64{0, math.Copysign(0, -1), 1e-9, 0.01, 0.049, 0.05, 0.051, 0.3, 0.79, 0.81, 1, -0.02, -0.6, -1,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	envs := []float64{0, 1e-12, 0.01, 0.05, 0.2, 0.6, 1, math.Inf(1)}
	d2s := []float64{1, 0, 1e-26, 4e-24, -1, math.Copysign(0, -1), math.NaN(), math.Inf(1)}
	const scale = 0.5
	for _, rule := range []*SkipRule{tabledRule(0.8, 0.05, 0.8, 0.86), tabledRule(0.8, 0.3, 0.8, 0.86), tabledRule(0.3, 0.011, 0.8, 0.5),
		{Delta: 0.8, Floor: 1e-4, SkipNum: 0.8, DecayBase: 0.86}} {
		for _, dot := range dots {
			for _, env := range envs {
				for _, d2 := range d2s {
					var w Walk
					oneStep(&w, rule, scale, []float64{dot}, []float64{d2}, []float64{env})
					label := fmt.Sprintf("floor=%g dot=%g norm²=%g env=%g", rule.Floor, dot, d2, env)
					_, events := runBoth(t, label, &w)
					g := &w.group[0]
					// One sample against the query {1}: the dot is the
					// sample, through Dot's +0 tail.
					omega, candidate, beta, nextEnv := branchStep(rule, scale, 0+dot, d2, env, 30)
					if !sameFloat(g.omega[0], omega) || (events&EventCandidate != 0) != candidate || events&EventDone == 0 ||
						g.at[0] != 30 || g.beta[0] != int64(beta) || !sameFloat(g.env[0], nextEnv) || g.evals != 1 {
						t.Fatalf("%s: step left ω=%x events=%#x β=%d env=%x after %d evaluations, branches ω=%x candidate=%v β=%d env=%x",
							label, math.Float64bits(g.omega[0]), events, g.beta[0], math.Float64bits(g.env[0]), g.evals,
							math.Float64bits(omega), candidate, beta, math.Float64bits(nextEnv))
					}
				}
			}
		}
	}
}

// TestStepEnvelopeBoundaries walks the skip rule's rounding boundaries:
// for every advance m the table holds, the envelope at which SkipNum/env
// + 0.5 reaches m+1, and its neighbours either side; the floor and its
// neighbours; and ω within an ulp of δ and of the envelope. Constant
// windows (ω = 0) leave the envelope to decide the advance alone.
func TestStepEnvelopeBoundaries(t *testing.T) {
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
			oneStep(&w, rule, 1, make([]float64, Lanes), make([]float64, Lanes), envs[i:i+Lanes])
			label := fmt.Sprintf("floor=%g envs=%v", rule.Floor, envs[i:i+Lanes])
			runBoth(t, label, &w)
			for k := 0; k < Lanes; k++ {
				_, _, beta, nextEnv := branchStep(rule, 1, 0, 0, envs[i+k], 30)
				if g := &w.group[0]; g.beta[k] != int64(beta) || !sameFloat(g.env[k], nextEnv) {
					t.Fatalf("%s lane %d: β=%d env=%x, branches β=%d env=%x", label, k, g.beta[k], math.Float64bits(g.env[k]), beta, math.Float64bits(nextEnv))
				}
			}
		}
		// ω = dot exactly (norm 1, scale 1): δ and the envelope one ulp
		// either side of it.
		for _, omega := range []float64{rule.Delta, 0.123456789, 0.9999999} {
			near := []float64{math.Nextafter(omega, 0), omega, math.Nextafter(omega, 1)}
			for _, dot := range near {
				for _, env := range near {
					var w Walk
					oneStep(&w, rule, 1, []float64{dot}, []float64{1}, []float64{env})
					label := fmt.Sprintf("floor=%g δ=%g ω=%x env=%x", rule.Floor, rule.Delta, math.Float64bits(dot), math.Float64bits(env))
					_, events := runBoth(t, label, &w)
					_, candidate, beta, nextEnv := branchStep(rule, 1, dot, 1, env, 30)
					if g := &w.group[0]; (events&EventCandidate != 0) != candidate || g.beta[0] != int64(beta) || !sameFloat(g.env[0], nextEnv) {
						t.Fatalf("%s: events=%#x β=%d env=%x, branches candidate=%v β=%d env=%x", label, events, g.beta[0], math.Float64bits(g.env[0]), candidate, beta, math.Float64bits(nextEnv))
					}
				}
			}
		}
	}
}

// TestStepUntabledRunsPortable: a rule whose floor allows advances past
// its table (or that has no table) never reaches the vector routine —
// its gather has no bounds check — and the portable step serves it with
// DecayPow.
func TestStepUntabledRunsPortable(t *testing.T) {
	defer func(s, sq func(*Walk, *group, *group) (int, uint32)) { step, stepQ = s, sq }(step, stepQ)
	step = func(*Walk, *group, *group) (int, uint32) {
		t.Fatal("an untabled walk reached the tabled route")
		return 0, 0
	}
	stepQ = step
	r := rng.New(31)
	buf := randVec(r, 900)
	sums := prefixSums(buf)
	short := tabledRule(0.3, 0.05, 0.8, 0.86)
	short.Decay = short.Decay[:len(short.Decay)-1]
	for _, rule := range []*SkipRule{{Delta: 0.3, Floor: 1e-4, SkipNum: 0.8, DecayBase: 0.86}, short,
		{Delta: 0.3, Floor: 0, SkipNum: 0.8, DecayBase: 0.86, Decay: short.Decay}} {
		var w Walk
		w.Reset(randVec(r, 64), rule)
		if w.tabled {
			t.Fatalf("rule %+v counts as tabled", rule)
		}
		for lane := 0; lane < 2*Lanes; lane++ {
			w.Seat(lane, buf[lane:lane+800], sums[lane:lane+801], 1, 700)
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

// TestRunRefusesShortPass: a live lane whose pass does not reach its
// last offset's window — in samples or in prefix sums — or whose offset
// is negative is refused by Run before any route reads through it; a
// masked lane is never looked at.
func TestRunRefusesShortPass(t *testing.T) {
	rule := tabledRule(0.8, 0.05, 0.8, 0.86)
	x := make([]float64, 100)
	sums := prefixSums(x)
	for name, seat := range map[string]func(w *Walk){
		"short samples": func(w *Walk) { w.Seat(5, x[:99], sums, 1, 84) },
		"short sums":    func(w *Walk) { w.Seat(5, x, sums[:100], 1, 84) },
		"offset past the pass": func(w *Walk) {
			w.Seat(5, x, sums, 1, 10)
			w.group[1].beta[1] = 85
		},
		"negative offset": func(w *Walk) {
			w.Seat(5, x, sums, 1, 10)
			w.group[1].beta[1] = -1
		},
	} {
		var w Walk
		w.Reset(make([]float64, 16), rule)
		w.Seat(0, x, sums, 1, 84)
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

// FuzzStep drives one walk from fuzzed bytes: the bytes are the sample
// buffer's float64 bits (NaN, ±Inf, denormals, anything), the seed draws
// the window length, the query, the rule and the lanes. The selected
// route must stay == to the portable step through the whole walk.
func FuzzStep(f *testing.F) {
	f.Add(uint64(1), []byte{})
	ramp := make([]byte, 8*300)
	for i := 0; i < 300; i++ {
		binary.LittleEndian.PutUint64(ramp[8*i:], math.Float64bits(float64(i%17)-8))
	}
	f.Add(uint64(2), ramp)
	special := make([]byte, 8*400)
	for i := 0; i < 400; i++ {
		bits := math.Float64bits(float64(i*i%29) - 14)
		if i%37 == 5 {
			bits = [...]uint64{0x7ff0000000000000, 0xfff8000000000001, 1, 0x8000000000000000, 0xfff0000000000000}[i%5]
		}
		binary.LittleEndian.PutUint64(special[8*i:], bits)
	}
	f.Add(uint64(3), special)
	f.Add(uint64(17), special[:8*90])
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		r := rng.New(seed)
		n := stepLengths[r.Intn(len(stepLengths))]
		// The fuzzed samples, repeated to fill at least two windows.
		buf := make([]float64, max(len(data)/8, 2*n+8))
		for i := range buf {
			if len(data) >= 8 {
				buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i%(len(data)/8)):]))
			}
		}
		sc := newScenario(r, n, buf)
		rule := tabledRule(r.Range(-1, 1), r.Range(0.01, 0.5), r.Range(0.1, 2), r.Range(0.1, 0.99))
		var w Walk
		w.Reset(randVec(r, n), rule)
		for lane := 0; lane < 2*Lanes; lane++ {
			if lane == 0 || r.Intn(5) != 0 {
				sc.seat(&w, lane)
			}
		}
		refills := r.Intn(6)
		driveBoth(t, fmt.Sprintf("seed %d n=%d", seed, n), &w, func(lane int) bool {
			if refills == 0 {
				return false
			}
			refills--
			sc.seat(&w, lane)
			return true
		})
	})
}

// BenchmarkKernelStep reports the scan's unit of work — one ω
// evaluation of the skip walk, sums, dot, envelope and skip included —
// over float64 samples and over int16 counts, each on the portable step
// and on the route this machine selected ("vector" is the AVX2 routine
// where init chose it; elsewhere it repeats portable): eight lanes over
// 1 255-sample passes of a one-second query, every finished lane
// reseated, as a lone query's scan keeps them. (White noise, so short
// envelopes and long skips: the rows price the step, not a scan —
// BenchmarkWalkRoutes does that.)
func BenchmarkKernelStep(b *testing.B) {
	r := rng.New(1)
	const n, maxOff, passes = 256, 999, 64
	buf := randVec(r, 8*(maxOff+n))
	sums := prefixSums(buf)
	// The float query is z-normalized, as the search's is: ω is then a
	// correlation, and both element types walk white noise alike.
	q := randVec(r, n)
	var mean, norm float64
	for _, v := range q {
		mean += v / n
	}
	for _, v := range q {
		norm += (v - mean) * (v - mean)
	}
	for i := range q {
		q[i] = (q[i] - mean) / math.Sqrt(norm)
	}
	counts, qc := randCounts(r, len(buf)), randCounts(r, n)
	csums := make([][2]float64, len(counts)+1)
	Widen(csums, counts)
	rule := tabledRule(0.8, 0.05, 0.8, 0.86)
	for _, bc := range []struct {
		name            string
		quant, portable bool
	}{{"portable", false, true}, {"vector", false, false}, {"portable-int16", true, true}, {"vector-int16", true, false}} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.portable {
				defer StepPortable()()
			}
			seat := func(w *Walk, lane, pass int) {
				start := pass % 8 * (maxOff + n) / 2
				if bc.quant {
					w.SeatQ(lane, counts[start:start+maxOff+n], csums[start:start+maxOff+n+1], maxOff)
				} else {
					w.Seat(lane, buf[start:start+maxOff+n], sums[start:start+maxOff+n+1], 1, maxOff)
				}
			}
			w := new(Walk)
			evals := 0
			for i := 0; i < b.N; i++ {
				if bc.quant {
					w.ResetQ(qc, rule)
				} else {
					w.Reset(q, rule)
				}
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
