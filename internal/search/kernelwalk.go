package search

import (
	"math"
	"sync"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
)

// lanes is how many signal-sets the skip walk keeps in flight at once.
// Algorithm 1 is one serial chain per set — ω at β decides the skip, the
// skip decides the next β — whose two divisions, square root and
// float→int convert each wait for the one before; four sets are four
// independent chains for the core to overlap. Eight measured no better
// than four (EXPERIMENTS.md), and four windows are what kernel.Dot4's
// eight accumulators fill the vector registers with.
const lanes = 4

// lane is one signal-set in flight: the set as the scan found its
// record when it took it, the pass over that set at the current window
// length (built, for a quantized record, in buffers the lane owns), and
// the trajectory of the query now walking it — its own β, |ω| envelope
// and per-set best, so what a query does in a set depends on (set,
// query) alone, whichever lane holds the set and whatever the other
// lanes hold.
type lane struct {
	set    *mdb.SignalSet
	recLen int
	// A record that is hot when the scan takes the set is read through
	// its float64 signal (stats); any other through its counts (qv).
	stats *dsp.SlidingStats
	qv    mdb.QuantView

	// opened: seg is a pass of the current length group.
	opened bool
	seg    segment
	qx     []float64 // loadQuant's buffers
	qsums  [][2]int64

	beta      int
	env       float64
	bestOmega float64
	bestBeta  int
	found     bool
}

// walkScratch is one shard worker's reusable kernel state: the lanes
// with their segment buffers, the shard position the lanes are filled
// from, FFT spectra and the profile buffer live across every set the
// worker scans — and, through scratchPool, across scans — so the walk
// allocates nothing per set. Query spectra are cached per (query,
// transform size) — one forward transform per unique query however many
// sets its group scans.
type walkScratch struct {
	engine *kernel.Engine
	// The shard being scanned: take hands shard[next] to a lane; passes
	// counts the (set, length-group) passes opened.
	snap   mdb.Snapshot
	shard  []*mdb.SignalSet
	next   int
	passes int
	lane   [lanes]lane
	// dots receives kernel.Dot4's results. It lives here because the
	// kernel is called through a route variable, which makes a local
	// escape — one allocation per walk.
	dots [lanes]float64

	segSpec []complex128
	work    []complex128
	profile []float64
	// dens[β] holds the centred window norm at every offset of the
	// current pass — O(1) each from prefix sums, but shared by every
	// exhaustive query instead of recomputed per (query, offset).
	dens  []float64
	qSpec map[qspecKey][]complex128
}

type qspecKey struct {
	q int
	m int
}

// scratchPool recycles walkScratch values across scans, so the segment
// scratch costs no steady-state allocation. It is package-level on
// purpose: a sync.Pool FIELD on Searcher keeps a finished Searcher —
// and through it a whole float store — reachable from the runtime's
// pool list for two GC cycles. A pooled scratch references only its
// own buffers: putScratch drops the engine, the snapshot, every lane's
// set and hot-tier signal alias, and the per-scan query spectra.
var scratchPool = sync.Pool{New: func() any {
	return &walkScratch{qSpec: make(map[qspecKey][]complex128)}
}}

func getScratch(engine *kernel.Engine, snap mdb.Snapshot, shard []*mdb.SignalSet) *walkScratch {
	scr := scratchPool.Get().(*walkScratch)
	scr.engine, scr.snap, scr.shard, scr.next, scr.passes = engine, snap, shard, 0, 0
	return scr
}

func putScratch(scr *walkScratch) {
	scr.engine, scr.snap, scr.shard = nil, mdb.Snapshot{}, nil
	for k := range scr.lane {
		l := &scr.lane[k]
		l.set, l.stats, l.qv, l.seg = nil, nil, mdb.QuantView{}, segment{}
	}
	clear(scr.qSpec)
	scratchPool.Put(scr)
}

// grow ensures the pass buffers fit transform size m.
func (scr *walkScratch) grow(bins, m int) {
	if cap(scr.segSpec) < bins {
		scr.segSpec = make([]complex128, bins)
		scr.work = make([]complex128, bins)
	}
	scr.segSpec = scr.segSpec[:bins]
	scr.work = scr.work[:bins]
	if cap(scr.profile) < m {
		scr.profile = make([]float64, m)
	}
	scr.profile = scr.profile[:m]
}

// querySpectrum returns the cached half-spectrum of unique query q at
// transform size m, computing it on first use.
func (scr *walkScratch) querySpectrum(p kernel.Profiler, q int, zq []float64) []complex128 {
	key := qspecKey{q: q, m: p.M()}
	if spec, ok := scr.qSpec[key]; ok {
		return spec
	}
	spec := make([]complex128, p.Bins())
	p.Spectrum(spec, zq)
	scr.qSpec[key] = spec
	return spec
}

// scanShardBatch scans a contiguous run of signal-sets for all unique
// queries at once, by the scan's one route: the skip walk is the lane
// walk over the pass segments (a batch costs one dequantization per
// pass, not one per query), the exhaustive scan is the dense FFT
// profile (O(L log L) per pass instead of O(n·L)).
func (s *Searcher) scanShardBatch(snap mdb.Snapshot, shard []*mdb.SignalSet, uniques [][]float64, groups []lenGroup, exhaustive bool) ([]queryAccum, int) {
	accs := make([]queryAccum, len(uniques))
	for i := range accs {
		accs[i].top = NewTopK(s.params.TopK)
	}
	scr := getScratch(s.engine, snap, shard)
	defer putScratch(scr)
	switch {
	case exhaustive:
		l := &scr.lane[0]
		for scr.take(l) {
			for gi := range groups {
				if s.open(scr, l, groups[gi].n) {
					s.walkDense(groups[gi].qs, uniques, &l.seg, accs, scr)
				}
			}
		}
	case len(uniques) == 1:
		// One query: a lane that runs off its set takes the next set of
		// the shard, so four sets are in flight until the shard runs
		// out.
		for k := range scr.lane {
			s.refill(scr, &scr.lane[k], len(uniques[0]))
		}
		s.walkLanes(scr, uniques[0], &accs[0], true)
	default:
		// Several queries: lanes must share a query (that is what lets
		// one kernel call serve four of them), so a run of sets is held
		// resident — dequantized once per length group — and walked
		// query by query.
		for {
			held := 0
			for held < lanes && scr.take(&scr.lane[held]) {
				held++
			}
			if held == 0 {
				break
			}
			for gi := range groups {
				for k := range scr.lane {
					l := &scr.lane[k]
					l.opened = k < held && s.open(scr, l, groups[gi].n)
				}
				for _, q := range groups[gi].qs {
					s.walkLanes(scr, uniques[q], &accs[q], false)
				}
			}
		}
	}
	return accs, scr.passes
}

// take makes the next signal-set of the shard lane l's. Tier residency:
// it counts the scan access (LRU stamp, possible opportunistic promotion
// under a byte budget) once per set, in shard order, and decides there
// how the set is read — a record that is hot right now through its
// float64 signal, any other in the compressed domain; promoting a
// warm/cold record just to scan it would defeat the tier budget.
func (scr *walkScratch) take(l *lane) bool {
	l.opened = false
	for scr.next < len(scr.shard) {
		set := scr.shard[scr.next]
		scr.next++
		rec, ok := scr.snap.Record(set.RecordID)
		if !ok {
			continue
		}
		rec.Touch()
		l.set, l.recLen, l.stats, l.qv = set, rec.Len(), nil, mdb.QuantView{}
		if rec.Tier() == mdb.TierHot {
			l.stats = rec.Stats()
		} else {
			l.qv, _ = rec.Quant()
		}
		return true
	}
	return false
}

// open builds l.seg, the pass over the lane's set for windows of n
// samples, and reports whether the set has any offset for them.
func (s *Searcher) open(scr *walkScratch, l *lane, n int) bool {
	set := l.set
	var maxOff int
	if s.params.PaperSliceScan {
		maxOff = set.Length - n // paper: while β < Length(S) − Length(I_N)
	} else {
		maxOff = set.Length - 1 // full coverage; window may cross into the parent recording
	}
	if set.Start+maxOff+n > l.recLen {
		maxOff = l.recLen - n - set.Start
	}
	if maxOff < 0 {
		return false
	}
	scr.passes++
	if l.stats != nil {
		l.seg = segment{x: l.stats.Signal()[set.Start : set.Start+maxOff+n], scale: 1, stats: l.stats, start: set.Start}
	} else {
		l.loadQuant(l.qv, set.Start, maxOff+n)
	}
	l.seg.setID, l.seg.n, l.seg.maxOff = set.ID, n, maxOff
	return true
}

// refill gives lane l the next set of the shard that has offsets for
// windows of n samples, ready to walk.
func (s *Searcher) refill(scr *walkScratch, l *lane, n int) bool {
	for scr.take(l) {
		if l.opened = s.open(scr, l, n); l.opened {
			l.start()
			return true
		}
	}
	return false
}

// start puts the lane's trajectory at the head of its pass.
func (l *lane) start() { l.beta, l.env, l.found = 0, 0, false }

// live reports whether the query walking the lane has offsets of its
// pass left to visit.
func (l *lane) live() bool { return l.opened && l.beta <= l.seg.maxOff }

// window is the stored window at the lane's offset; den its scaled
// norm.
func (l *lane) window() []float64 { return l.seg.x[l.beta : l.beta+l.seg.n] }
func (l *lane) den() float64      { return l.seg.scale * l.seg.norm(l.beta) }

// walkDense is the exhaustive scan of one pass: the sliding-dot
// numerators for EVERY offset come from one multiply+inverse against the
// segment spectrum (one transform per pass) and the cached query
// spectrum, O(L log L) per query, and each offset then reads ω as
// profile[β]/‖window‖ in O(1). ω only matters where it clears δ, so most
// offsets get a multiply-compare against δ·‖window‖ (with a margin far
// wider than the rounding gap between the two forms) instead of a
// division; the exact num/norm > δ test still decides every
// near-threshold offset, keeping candidate classification identical to
// an always-divide scan. Over a quantized segment the profile is a
// PREFILTER, never a score: every offset inside the margin is rescored
// by the exact dot over the segment scratch, so candidate decisions and
// reported ω come from the same arithmetic as the skip walk.
func (s *Searcher) walkDense(qs []int, uniques [][]float64, g *segment, accs []queryAccum, scr *walkScratch) {
	p := &s.params
	maxOff, setID := g.maxOff, g.setID
	prof := scr.engine.Profiler(len(g.x))
	scr.grow(prof.Bins(), prof.M())
	prof.Spectrum(scr.segSpec, g.x)
	if cap(scr.dens) < maxOff+1 {
		scr.dens = make([]float64, maxOff+1)
	}
	scr.dens = scr.dens[:maxOff+1]
	g.norms(scr.dens)
	profile, dens := scr.profile, scr.dens
	rescore := g.stats == nil
	for _, q := range qs {
		zq := uniques[q]
		prof.Correlate(profile, scr.segSpec, scr.querySpectrum(prof, q, zq), scr.work)
		acc := &accs[q]
		acc.profiled++
		acc.evaluated += maxOff + 1
		found, bestOmega, bestBeta := false, 0.0, 0
		for beta, den := range dens {
			// Degenerate (constant) stored windows correlate as 0,
			// matching dsp.SlidingStats.CorrAt.
			omega := 0.0
			if den >= 1e-12 {
				thresh := p.Delta * den
				if profile[beta] <= thresh-1e-9*(math.Abs(thresh)+1) {
					continue
				}
				num := profile[beta]
				if rescore {
					num = kernel.Dot(zq, g.x[beta:beta+g.n])
				}
				omega = num / den
			}
			if omega > p.Delta {
				acc.candidates++
				if p.AllOffsets {
					acc.top.Push(Match{SetID: setID, Omega: omega, Beta: beta})
				} else if !found || omega > bestOmega {
					bestOmega, bestBeta, found = omega, beta, true
				}
			}
		}
		if found {
			acc.top.Push(Match{SetID: setID, Omega: bestOmega, Beta: bestBeta})
		}
	}
}

// walkLanes is the skip walk: query zq walks every opened lane's pass
// from its head. While all four lanes are live they step in lockstep —
// four O(1) norms, one kernel.Dot4 for the four windows, four visits
// finished — so the four sets' serial chains overlap in the core; with
// refill, a lane that runs off its set takes the next set of the shard
// and the other three keep going. Fewer than four live lanes drain one
// at a time through the same visit, with kernel.Dot.
//
// Lanes never exchange anything but the query: out[k] == Dot(zq,
// window k) bit for bit (Dot4's contract), so every lane's trajectory,
// its candidates and its best match are what a lone walk of that set
// gives. What lanes do change is the order matches reach the top-K,
// which is why TopK ranks by a total order.
func (s *Searcher) walkLanes(scr *walkScratch, zq []float64, acc *queryAccum, refill bool) {
	L := &scr.lane
	live := 0
	for k := range L {
		if L[k].start(); L[k].live() {
			live++
		}
	}
	var dens [lanes]float64
	dots := &scr.dots
	for live == lanes {
		for k := range L {
			dens[k] = L[k].den()
		}
		kernel.Dot4(zq, L[0].window(), L[1].window(), L[2].window(), L[3].window(), dots)
		for k := range L {
			l := &L[k]
			if s.visit(l, acc, dots[k], dens[k]) {
				continue
			}
			s.finish(l, acc)
			if !refill || !s.refill(scr, l, len(zq)) {
				live--
			}
		}
	}
	for k := range L {
		l := &L[k]
		if !l.live() {
			continue
		}
		for s.visit(l, acc, kernel.Dot(zq, l.window()), l.den()) {
		}
		s.finish(l, acc)
	}
}

// visit finishes lane l's evaluation at its current offset — dot is
// Σzq·x over the window there, den the pass's scaled window norm — and
// advances it by the skip rule, returning false once the lane is past
// the end of its pass. The two data-dependent decisions of a visit, the
// envelope's running maximum and the skip rule's floor, are max()
// selects, not branches: they go either way about as often, and a
// mispredicted branch would flush the other lanes' work along with this
// one's.
func (s *Searcher) visit(l *lane, acc *queryAccum, dot, den float64) bool {
	p := &s.params
	g := &l.seg
	// Degenerate (constant) stored windows correlate as 0.
	omega := 0.0
	if den >= 1e-12 {
		omega = g.scale * dot / den
	}
	acc.evaluated++
	if omega > p.Delta {
		acc.candidates++
		if p.AllOffsets {
			acc.top.Push(Match{SetID: g.setID, Omega: omega, Beta: l.beta})
		} else if !l.found || omega > l.bestOmega {
			l.bestOmega, l.bestBeta, l.found = omega, l.beta, true
		}
	}
	// A NaN ω (a non-finite stored sample) leaves the envelope as it
	// is, as the comparison |ω| > env always has; max alone would
	// poison it.
	a := math.Abs(omega)
	if a != a {
		a = 0
	}
	env := max(l.env, a)
	adv := s.skipFor(env)
	l.beta += adv
	if adv < len(s.decay) {
		env *= s.decay[adv]
	} else {
		env *= decayPow(p.EnvDecay, adv)
	}
	l.env = env
	return l.beta <= g.maxOff
}

// finish hands the lane's best match in its set to the query's top-K.
func (s *Searcher) finish(l *lane, acc *queryAccum) {
	if l.found && !s.params.AllOffsets {
		acc.top.Push(Match{SetID: l.seg.setID, Omega: l.bestOmega, Beta: l.bestBeta})
	}
}
