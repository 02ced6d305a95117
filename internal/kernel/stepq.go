package kernel

import "math"

// ResetQ readies the walk for a query of int16 counts (non-empty, at
// most 2²⁰ of them — mdb.MaxSliceLen, which the search enforces) under
// rule: every lane masked, counters zero, Σq and √D_q taken, the route
// chosen and the query split for it. A query whose counts are all equal
// has D_q = 0, and every ω of the walk is +0. Lanes seated by an earlier
// walk are forgotten but their slices stay referenced until Release.
func (w *Walk) ResetQ(q []int16, rule *SkipRule) {
	w.qc, w.rule, w.nf, w.turn = q, *rule, float64(len(q)), 0
	x := rule.SkipNum/rule.Floor + 0.5
	w.tabled = rule.Floor > 0 && len(rule.Decay) >= 2 && x < float64(len(rule.Decay))
	for i := range w.group {
		g := &w.group[i]
		g.evals, g.live, g.nlive, g.liveBits = 0, [Lanes]uint64{}, 0, 0
	}
	var sum, sumSq int64
	for _, v := range q {
		sum += int64(v)
		sumSq += int64(v) * int64(v)
	}
	w.sq = float64(sum)
	w.rq = math.Sqrt(float64(w.nf*float64(sumSq)) - float64(w.sq*w.sq))
	// The widest vector route the query fills a block of, for a tabled
	// rule only (a vector route gathers the decay unchecked).
	w.route = &portable
	for _, v := range vector {
		if w.tabled && len(q) >= v.block {
			w.route = v
		}
	}
	w.qsplit = splitQuery(w.qsplit[:0], q, w.route.block)
}

// splitQuery appends q in the form a vector route's dot reads, in blocks
// of block counts (nothing for the portable step, block 0). VPMADDWD and
// VPDPWSSD multiply int16 pairs and add neighbours into int32 — which a
// count pair at the rail overflows ((−32 768)² twice is 2³¹) and which
// leaves no room to accumulate. So every count is split q = 256·h + l
// with h = q>>8 ∈ [−128, 127] and l = q&255 ∈ [0, 255]: a pair sum
// against any two counts is below 2²⁴, so 128 of them fit an int32
// (255·32 768·2·128 < 2³¹), and Σqc = 256·Σhc + Σlc exactly. Each route
// caps its chunk — the blocks it sums in int32 before it widens — so no
// int32 it adds ever holds more than 128 pair sums (DESIGN.md §11).
//
// Each block becomes its block counts' h then their l. The n mod block
// counts left over make one more block that is read against the LAST
// block counts of the window: zeros, then the leftover counts — so the
// dot reads exactly the window whatever its length and has no scalar
// tail. (That is why a route needs n ≥ block.)
func splitQuery(dst, q []int16, block int) []int16 {
	if block == 0 {
		return dst
	}
	// put appends one block: pad zeros and b's h, pad zeros and b's l.
	put := func(pad int, b []int16) {
		dst = append(dst, make([]int16, pad)...)
		for _, v := range b {
			dst = append(dst, v>>8)
		}
		dst = append(dst, make([]int16, pad)...)
		for _, v := range b {
			dst = append(dst, v&255)
		}
	}
	whole := len(q) - len(q)%block
	for i := 0; i < whole; i += block {
		put(0, q[i:i+block])
	}
	if rest := q[whole:]; len(rest) > 0 {
		put(block-len(rest), rest)
	}
	return dst
}

// SeatQ puts a pass of int16 counts in lane (0 ≤ lane < 2·Lanes;
// lane/Lanes is its group) with the trajectory at its head: offset 0,
// envelope 0. The lane's window at offset β ∈ [0, maxOff] is
// c[β:β+len(q)], read in place — a record's resident counts or its
// mapped file — with sums[i] = {Σ c[:i], Σ c[:i]²} as Widen fills them:
// c must hold maxOff+len(q) counts and sums one entry more.
func (w *Walk) SeatQ(lane int, c []int16, sums [][2]float64, maxOff int) {
	g, k := &w.group[lane/Lanes], lane%Lanes
	g.c[k], g.sums[k], g.maxOff[k] = c, sums, int64(maxOff)
	g.beta[k], g.env[k] = 0, 0
	g.setLive(k, true)
}

// stepQPortable steps a, then b, then a … (b may be nil) until a step
// reports events; which is 0 when that step was a's.
func stepQPortable(w *Walk, a, b *group) (which int, events uint32) {
	for {
		if events = a.stepQPortable(w); events != 0 {
			return which, events
		}
		if b != nil {
			a, b, which = b, a, which^1
		}
	}
}

// stepQPortable is one step of the group's live lanes: the sequence in
// Walk's comment, spelled out. Every product is wrapped in float64(…) so
// that no compiler fuses it into the subtraction that follows (the Go
// spec lets arm64, ppc64le, s390x and riscv64 round x*y − z once).
func (g *group) stepQPortable(w *Walk) (events uint32) {
	q, nf := w.qc, w.nf
	n := len(q)
	g.evals += g.nlive
	for k := range g.c {
		if g.live[k] == 0 {
			g.at[k], g.omega[k] = g.beta[k], 0
			continue
		}
		beta := int(g.beta[k])
		sums := g.sums[k]
		lo, hi := &sums[beta], &sums[beta+n]
		sc, scc := hi[0]-lo[0], hi[1]-lo[1]
		den := w.rq * math.Sqrt(float64(nf*scc)-float64(sc*sc))
		a := float64(nf*float64(dotq(q, g.c[k][beta:beta+n]))) - float64(w.sq*sc)
		// A constant window on either side (D = 0) correlates as 0.
		omega := 0.0
		if den > 0 {
			omega = a * (1 / den)
		}
		events |= g.move(k, omega, &w.rule)
	}
	return events
}
