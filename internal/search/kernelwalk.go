package search

import (
	"math"
	"sync"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
)

// lanes is how many signal-sets the skip walk keeps in flight at once:
// the two groups of four a kernel.Walk steps alternately. Algorithm 1 is
// one serial chain per set — ω at β decides the skip, the skip decides
// the next β — whose two divisions, square root and float→int convert
// each wait for the one before. Four sets are four such chains computed
// in the four elements of one vector register; the second group is
// there so that one group's chain resolves under the other's dot
// product (see kernel.Walk).
const lanes = 2 * kernel.Lanes

// lane is one signal-set in flight: the set as the scan found its
// record when it took it, the pass over that set at the current window
// length (built, for a quantized record, in buffers the lane owns), and
// the best match of the query now walking it. The walk itself — the
// query's β and |ω| envelope in this set — lives in the lane's slot of
// the scratch's kernel.Walk; what a query does in a set depends on
// (set, query) alone, whichever lane holds the set and whatever the
// other lanes hold.
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
	qsums  [][2]float64

	bestOmega float64
	bestBeta  int
	found     bool
}

// walkScratch is one shard worker's reusable kernel state: the lanes
// with their segment buffers, the walk that steps them, the shard
// position the lanes are filled from, FFT spectra and the profile
// buffer live across every set the worker scans — and, through
// scratchPool, across scans — so the walk allocates nothing per set.
// Query spectra are cached per (query, transform size) — one forward
// transform per unique query however many sets its group scans.
type walkScratch struct {
	engine *kernel.Engine
	// The shard being scanned: take hands shard[next] to a lane; passes
	// counts the (set, length-group) passes opened.
	snap   mdb.Snapshot
	shard  []*mdb.SignalSet
	next   int
	passes int
	lane   [lanes]lane
	// walk holds the lanes' trajectories as the step kernel wants them.
	// It lives here, not on walkLanes' stack, because the kernel is
	// called through a route variable, which would make a local escape —
	// one allocation per walk.
	walk kernel.Walk

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
// set and hot-tier signal alias, what the walk still points at, and the
// per-scan query spectra.
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
	scr.walk.Release()
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
					s.walkDense(groups[gi].qs, uniques, l, accs, scr)
				}
			}
		}
	case len(uniques) == 1:
		// One query: a lane that runs off its set takes the next set of
		// the shard, so eight sets are in flight until the shard runs
		// out.
		for k := range scr.lane {
			s.refill(scr, &scr.lane[k], len(uniques[0]))
		}
		s.walkLanes(scr, uniques[0], &accs[0], true)
	default:
		// Several queries: lanes must share a query (that is what lets
		// one kernel step serve four of them), so a run of sets is held
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
		lo, hi := set.Start, set.Start+maxOff+n
		l.seg = segment{x: l.stats.Signal()[lo:hi], sums: l.stats.Sums()[lo : hi+1], scale: 1}
	} else {
		l.loadQuant(l.qv, set.Start, maxOff+n)
	}
	l.seg.setID, l.seg.n, l.seg.maxOff = set.ID, n, maxOff
	return true
}

// refill gives lane l the next set of the shard that has offsets for
// windows of n samples.
func (s *Searcher) refill(scr *walkScratch, l *lane, n int) bool {
	for scr.take(l) {
		if l.opened = s.open(scr, l, n); l.opened {
			return true
		}
	}
	return false
}

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
func (s *Searcher) walkDense(qs []int, uniques [][]float64, l *lane, accs []queryAccum, scr *walkScratch) {
	p := &s.params
	g := &l.seg
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
	rescore := l.stats == nil
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
// from its head. The lanes' trajectories are seated in the scratch's
// kernel.Walk, which steps them four at a time — norms, dots, ω,
// envelope, skip, all in the kernel — and comes back here only when a
// step has an event: a candidate to weigh, or a lane past the end of
// its pass, whose best match goes to the top-K and which, with refill,
// takes the next set of the shard. A lane with nothing left to take is
// masked: the walk ends when every lane is.
//
// Lanes never exchange anything but the query: each lane's ω is
// Dot(zq, its window) over its own norm bit for bit (the kernel's
// contract), so every lane's trajectory, its candidates and its best
// match are what a lone walk of that set gives. What lanes do change is
// the order matches reach the top-K, which is why TopK ranks by a total
// order.
func (s *Searcher) walkLanes(scr *walkScratch, zq []float64, acc *queryAccum, refill bool) {
	w := &scr.walk
	w.Reset(zq, &s.rule)
	for k := range scr.lane {
		if l := &scr.lane[k]; l.opened {
			seat(w, k, l)
		}
	}
	for {
		first, events := w.Run()
		if events == 0 {
			break
		}
		for k := 0; k < kernel.Lanes; k++ {
			ev := events >> k
			at := first + k
			l := &scr.lane[at]
			if ev&kernel.EventCandidate != 0 {
				omega, beta := w.Taken(at)
				acc.candidates++
				if s.params.AllOffsets {
					acc.top.Push(Match{SetID: l.seg.setID, Omega: omega, Beta: beta})
				} else if !l.found || omega > l.bestOmega {
					l.bestOmega, l.bestBeta, l.found = omega, beta, true
				}
			}
			if ev&kernel.EventDone != 0 {
				if l.found {
					acc.top.Push(Match{SetID: l.seg.setID, Omega: l.bestOmega, Beta: l.bestBeta})
				}
				if refill && s.refill(scr, l, len(zq)) {
					seat(w, at, l)
				} else {
					w.Mask(at)
				}
			}
		}
	}
	acc.evaluated += w.Evals()
}

// seat puts lane l's pass in slot at of the walk, the query at its
// head.
func seat(w *kernel.Walk, at int, l *lane) {
	l.found = false
	w.Seat(at, l.seg.x, l.seg.sums, l.seg.scale, l.seg.maxOff)
}
