package kernel

import (
	"math"
	"math/bits"
)

// Lanes is the width of a step group: four signal-sets walked in
// lockstep, the four windows whose eight accumulators fill the vector
// registers.
const Lanes = 4

// A step's events, as Run reports them: bit k says the group's lane k
// took an ω that cleared δ (a candidate: see Taken), bit Lanes+k that its
// offset has moved past the last one of its pass.
const (
	EventCandidate = 1
	EventDone      = 1 << Lanes
)

// SkipRule is the part of a walk every lane shares besides the query:
// the candidate threshold δ and Algorithm 1's skip rule — the advance
// round(SkipNum/max(envelope, Floor)), at least 1, and the envelope's
// decay over it. Decay[adv] must be DecayPow(DecayBase, adv); it may be
// short, or nil.
type SkipRule struct {
	Delta     float64
	Floor     float64
	SkipNum   float64
	DecayBase float64
	Decay     []float64
}

// DecayPow returns decay^n for small integer n without calling
// math.Pow, in one defined order of multiplications — the skip rule's
// envelope decay, and what SkipRule.Decay tabulates.
func DecayPow(decay float64, n int) float64 {
	out := 1.0
	for ; n >= 4; n -= 4 {
		d2 := decay * decay
		out *= d2 * d2
	}
	for ; n > 0; n-- {
		out *= decay
	}
	return out
}

// group is four lanes of a walk as a struct of arrays, the shape the
// vector step loads whole. Lane k reads one pass of int16 counts c[k] —
// its window at offset β is the n counts from β — through the pass's
// prefix sums sums[k] (sums[k][i] = {Σ c[k][:i], Σ c[k][:i]²}) and
// carries the trajectory of the query walking it: the offset beta[k]
// and the |ω| envelope env[k] (never negative, never NaN; +Inf is fine).
// Each step leaves the ω it took in omega[k] and the offset it took it
// at in at[k]. Walk.SeatQ and Walk.Mask fill a lane; the step moves it.
type group struct {
	// The fields the vector step loads and stores whole come first, each
	// at a multiple of its 32 bytes, and the struct is padded to a
	// multiple of 64: in a walk that starts on a cache line (where the
	// search's pooled scratch puts it) none of them straddles two.
	maxOff [Lanes]int64
	beta   [Lanes]int64
	env    [Lanes]float64
	omega  [Lanes]float64
	at     [Lanes]int64
	// live[k] is all ones for a lane that walks and zero for a masked
	// one; nlive counts the former and liveBits holds both their event
	// bits.
	live [Lanes]uint64
	// spill and spill2 are the vector step's own. It computes what does
	// not depend on the dot before it — the dot needs every register —
	// and parks it here: the reciprocals of the four denominators (+0 for
	// a constant window) in spill, the four Σq·Σc in spill2.
	spill  [Lanes]float64
	spill2 [Lanes]float64

	c    [Lanes][]int16
	sums [Lanes][][2]float64
	// evals counts the ω evaluations the group's live lanes have had.
	evals    int64
	nlive    int64
	liveBits uint32
	_        [44]byte
}

func (g *group) setLive(k int, on bool) {
	bit := uint32(EventCandidate|EventDone) << k
	if on == (g.liveBits&bit != 0) {
		return
	}
	if on {
		g.live[k], g.liveBits, g.nlive = ^uint64(0), g.liveBits|bit, g.nlive+1
	} else {
		g.live[k], g.liveBits, g.nlive = 0, g.liveBits&^bit, g.nlive-1
	}
}

// Walk is one query's lockstep skip walk over up to eight signal-sets:
// two groups of four lanes, stepped alternately. It is the whole inner
// loop of Algorithm 1 — per lane and per step, in this order and with
// every operation rounded on its own. Both operands are int16 counts —
// the query's (ResetQ) and the record's, read in place (SeatQ) — and so
// is every sum: with n the window length, Σq and D_q = n·Σq² − (Σq)² of
// the query (once per ResetQ),
//
//	Σc, Σc² = sums[β+n] − sums[β]             (exact integers, see Widen)
//	Σqc     = DotQ(q, c[β:β+n])               (exact int64: no order)
//	A       = n·Σqc − Σq·Σc
//	D_c     = n·Σc² − Σc·Σc
//	den     = √D_q · √D_c
//	ω       = A · (1/den);  +0 unless den > 0
//
// which is Pearson's r of the two count windows with the record's scale
// (and the query's) cancelled out of it. All four products are integers
// below n²·2³⁰, so A and both D are exact while n²·2³⁰ < 2⁵³ — n ≤ 2 896
// — and ω is then the exact rational rounded five times (two roots, a
// product, a reciprocal, a product); a longer window rounds the
// products it cannot hold, each once. The reciprocal is spelled out
// because it does not wait for the dot: what follows the dot is one
// multiplication where a quotient would be a division. den > 0 says
// neither window is constant (a rounded D_c below zero makes den NaN,
// which fails it too). Integer sums have no order to disagree about, so
// no route, block size or instruction set can change a bit of A or D,
// and the float tail is the same operations everywhere. Then:
//
//	candidate when ω > δ
//	a       = |ω|;  NaN → +0
//	env     = a if a > env, else env
//	e       = env if env > Floor, else Floor
//	adv     = int(SkipNum/e + 0.5), truncated;  at least 1
//	at, β   = β, β + adv
//	env     = env · Decay[adv]
//	done when β > maxOff
//
// The portable step is that sequence in Go and is the definition; each
// vector route (the AVX2 and the AVX-512 VNNI routines, see route) does
// it for the four lanes of a group at once and is == to it on every
// field after every call. A masked lane does not take
// part: its offset and envelope stay, it reports ω = +0 and no event —
// the vector route still computes over it (which is why Run parks it on
// valid memory), the portable route skips it. A rule with SkipNum = 0
// advances by one at every step: the exhaustive scan is this walk too.
//
// Two groups, not one, because a step ends in a serial chain — dot → ω
// → envelope → advance → the next window's address: a division, a
// convert, a table load — during which the multipliers would idle; the
// other group's dot follows in program order, depends on none of it and
// fills that time.
type Walk struct {
	group [2]group

	rule SkipRule
	nf   float64
	// The query as given, Σq, √D_q, the route ResetQ chose, and the
	// query split for it (see splitQuery), which the walk owns and keeps
	// across Release.
	qc     []int16
	sq, rq float64
	route  *route
	qsplit []int16
	// tabled: Decay covers every advance the rule can produce, which is
	// what the vector route needs (a gather with no bounds check, and an
	// advance that fits the 32-bit convert).
	tabled bool
	// turn is the group that steps first in the next Run.
	turn int
}

// Release drops every slice the walk references — the query, the rule's
// table, the lanes' passes — so a pooled Walk pins nothing but its own
// split buffer.
func (w *Walk) Release() { *w = Walk{qsplit: w.qsplit[:0]} }

// Mask takes lane out of the walk.
func (w *Walk) Mask(lane int) { w.group[lane/Lanes].setLive(lane%Lanes, false) }

// Taken returns the ω lane took in its group's last step and the offset
// it took it at — the candidate, when the step reported one for it.
func (w *Walk) Taken(lane int) (omega float64, beta int) {
	g, k := &w.group[lane/Lanes], lane%Lanes
	return g.omega[k], int(g.at[k])
}

// Evals is the number of ω evaluations since ResetQ.
func (w *Walk) Evals() int { return int(w.group[0].evals + w.group[1].evals) }

// Run steps the groups alternately until a step has an event, and
// returns the step's event bits and the group's first lane (0 or Lanes:
// bit k is about lane first+k); the next Run starts at the other group.
// A group with no live lane is left out; with no live lane at all Run
// returns events == 0 at once, and that is the only way it does.
//
// Run panics if a live lane's pass does not hold every window from its
// offset to its last: the vector route reads through raw pointers, so
// the extents are checked here, once per call, on every route alike.
func (w *Walk) Run() (first int, events uint32) {
	turn := w.turn
	a, b := &w.group[turn], &w.group[turn^1]
	if a.nlive == 0 {
		a, b, turn = b, a, turn^1
	}
	if a.nlive == 0 {
		return 0, 0
	}
	w.admit(a)
	if b.nlive == 0 {
		b = nil
	} else {
		w.admit(b)
	}
	which, events := w.route.step(w, a, b)
	turn ^= which
	w.turn = turn ^ 1
	return turn * Lanes, events
}

// admit checks the extents of g's live lanes and parks its masked lanes
// at the head of a live lane's pass, where the vector route's loads are
// harmless.
func (w *Walk) admit(g *group) {
	n := int64(w.nf)
	donor := bits.TrailingZeros32(g.liveBits)
	for k := range g.c {
		if g.live[k] == 0 {
			g.c[k], g.sums[k], g.beta[k] = g.c[donor], g.sums[donor], 0
			continue
		}
		end := max(g.beta[k], g.maxOff[k]) + n
		if g.beta[k] < 0 || end > int64(len(g.c[k])) || end >= int64(len(g.sums[k])) {
			panic("kernel: a lane's pass does not hold the windows up to its last offset")
		}
	}
}

// route is one way to take a walk's step: the routine, and the block of
// query counts its dot reads, at which ResetQ splits the query (0: none).
type route struct {
	name  string
	block int
	step  func(w *Walk, a, b *group) (which int, events uint32)
}

var portable = route{name: "portable", step: stepQPortable}

// vector lists the vector routes this machine runs, narrowest block
// first (dot_amd64.go's init).
var vector []*route

// Routes names the routes a walk can take here: "portable", then the
// vector routes, narrowest block first.
func Routes() []string {
	names := []string{portable.name}
	for _, v := range vector {
		names = append(names, v.name)
	}
	return names
}

// ForceRoute confines walks reset after it to the named route of Routes
// (short queries and untabled rules still take the portable step) until
// restore is called: for tests and benchmarks that hold the routes to
// one another, never concurrently with ResetQ.
func ForceRoute(name string) (restore func()) {
	all := vector
	vector = nil
	for _, v := range all {
		if v.name == name {
			vector = []*route{v}
		}
	}
	if vector == nil && name != portable.name {
		panic("kernel: no route " + name)
	}
	return func() { vector = all }
}

// move is what follows ω in a step of live lane k: the candidate test,
// the envelope, the advance, the decay and the done test, in Walk's
// order. It returns the lane's event bits. The two selects on the
// envelope are max(), not branches: each goes either way about as often,
// and on env's domain (≥ +0, not NaN) max is the comparison.
func (g *group) move(k int, omega float64, r *SkipRule) (events uint32) {
	g.at[k], g.omega[k] = g.beta[k], omega
	if omega > r.Delta {
		events = EventCandidate << k
	}
	// A NaN ω leaves the envelope as it is; max alone would poison it.
	a := math.Abs(omega)
	if a != a {
		a = 0
	}
	env := max(g.env[k], a)
	adv := max(int(r.SkipNum/max(env, r.Floor)+0.5), 1)
	beta := g.beta[k] + int64(adv)
	if adv < len(r.Decay) {
		env *= r.Decay[adv]
	} else {
		env *= DecayPow(r.DecayBase, adv)
	}
	g.beta[k], g.env[k] = beta, env
	if beta > g.maxOff[k] {
		events |= EventDone << k
	}
	return events
}
