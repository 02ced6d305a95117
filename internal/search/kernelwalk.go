package search

import (
	"math"
	"sync"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
)

// maxWheelSpan bounds the bucket-queue wheel; parameter settings whose
// maximum skip exceeds it (pathologically small OmegaFloor) fall back
// to the linear frontier scan.
const maxWheelSpan = 4096

// walkScratch is one shard worker's reusable kernel state: the pass
// segment, FFT spectra, the profile buffer and the wheel buckets live
// across every set the worker scans — and, through scratchPool, across
// scans — so the walk allocates nothing per set. Query spectra are
// cached per (query, transform size) — one forward transform per
// unique query however many sets its group scans.
type walkScratch struct {
	engine *kernel.Engine
	// seg is the current (set, length-group) pass; qx/psum/psumSq are
	// the buffers its quantized form is built into (walkquant.go).
	seg          segment
	qx           []float64
	psum, psumSq []int64
	segSpec      []complex128
	work         []complex128
	profile      []float64
	// dens[β] holds the centred window norm at every offset of the
	// current pass — O(1) each from prefix sums, but shared by every
	// exhaustive cursor instead of recomputed per (cursor, offset).
	dens    []float64
	qSpec   map[qspecKey][]complex128
	buckets [][]int32
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
// own buffers: putScratch drops the engine, the hot-tier signal alias
// and the per-scan query spectra.
var scratchPool = sync.Pool{New: func() any {
	return &walkScratch{qSpec: make(map[qspecKey][]complex128)}
}}

func getScratch(engine *kernel.Engine) *walkScratch {
	scr := scratchPool.Get().(*walkScratch)
	scr.engine = engine
	return scr
}

func putScratch(scr *walkScratch) {
	scr.engine, scr.seg = nil, segment{}
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
// queries at once. Per signal-set and per length group it builds the
// pass segment once and walks it by the scan's one route: the skip walk
// is the sparse merged walk (B queries cost one pass of memory traffic,
// not B), the exhaustive scan is the dense FFT profile (O(L log L) per
// pass instead of O(n·L)).
func (s *Searcher) scanShardBatch(snap mdb.Snapshot, shard []*mdb.SignalSet, uniques [][]float64, groups []lenGroup, exhaustive bool) ([]queryAccum, int) {
	p := &s.params
	accs := make([]queryAccum, len(uniques))
	for i := range accs {
		accs[i].top = NewTopK(p.TopK)
	}
	passes := 0
	scr := getScratch(s.engine)
	defer putScratch(scr)
	// One reusable cursor slice per group, reset for every set.
	cursors := make([][]cursor, len(groups))
	for gi, g := range groups {
		cursors[gi] = make([]cursor, len(g.qs))
		for ci, q := range g.qs {
			cursors[gi][ci] = cursor{q: q, zq: uniques[q]}
		}
	}
	for _, set := range shard {
		rec, ok := snap.Record(set.RecordID)
		if !ok {
			continue
		}
		// Tier residency: count the scan access (LRU stamp, possible
		// opportunistic promotion under a byte budget).
		rec.Touch()
		// A record that is hot right now is scanned through its float64
		// signal; any other is scanned in the compressed domain —
		// promoting a warm/cold record just to scan it would defeat the
		// tier budget.
		var stats *dsp.SlidingStats
		var qv mdb.QuantView
		if rec.Tier() == mdb.TierHot {
			stats = rec.Stats()
		} else {
			qv, _ = rec.Quant()
		}
		recLen := rec.Len()
		for gi := range groups {
			n := groups[gi].n
			var maxOff int
			if p.PaperSliceScan {
				maxOff = set.Length - n // paper: while β < Length(S) − Length(I_N)
			} else {
				maxOff = set.Length - 1 // full coverage; window may cross into the parent recording
			}
			if set.Start+maxOff+n > recLen {
				maxOff = recLen - n - set.Start
			}
			if maxOff < 0 {
				continue
			}
			passes++
			cs := cursors[gi]
			for ci := range cs {
				c := &cs[ci]
				c.beta, c.env, c.found = 0, 0, false
			}
			g := &scr.seg
			if stats != nil {
				*g = segment{x: stats.Signal()[set.Start : set.Start+maxOff+n], scale: 1, stats: stats, start: set.Start}
			} else {
				scr.loadQuant(qv, set.Start, maxOff+n)
			}
			g.setID, g.n, g.maxOff = set.ID, n, maxOff
			if exhaustive {
				s.walkDense(cs, g, accs, scr)
			} else {
				s.walkSparse(cs, g, accs, scr)
			}
			for ci := range cs {
				if c := &cs[ci]; c.found && !p.AllOffsets {
					accs[c.q].top.Push(Match{SetID: set.ID, Omega: c.bestOmega, Beta: c.bestBeta})
				}
			}
		}
	}
	return accs, passes
}

// walkDense is the exhaustive scan of one pass: the sliding-dot
// numerators for EVERY offset come from one multiply+inverse against the
// segment spectrum (one transform per pass) and the cached query
// spectrum, O(L log L) per cursor, and each offset then reads ω as
// profile[β]/‖window‖ in O(1). ω only matters where it clears δ, so most
// offsets get a multiply-compare against δ·‖window‖ (with a margin far
// wider than the rounding gap between the two forms) instead of a
// division; the exact num/norm > δ test still decides every
// near-threshold offset, keeping candidate classification identical to
// an always-divide scan. Over a quantized segment the profile is a
// PREFILTER, never a score: every offset inside the margin is rescored
// by the exact dot over the segment scratch, so candidate decisions and
// reported ω come from the same arithmetic as the skip walk.
func (s *Searcher) walkDense(cs []cursor, g *segment, accs []queryAccum, scr *walkScratch) {
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
	for ci := range cs {
		c := &cs[ci]
		prof.Correlate(profile, scr.segSpec, scr.querySpectrum(prof, c.q, c.zq), scr.work)
		acc := &accs[c.q]
		acc.profiled++
		acc.evaluated += maxOff + 1
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
					num = kernel.Dot(c.zq, g.x[beta:beta+g.n])
				}
				omega = num / den
			}
			if omega > p.Delta {
				acc.candidates++
				if p.AllOffsets {
					acc.top.Push(Match{SetID: setID, Omega: omega, Beta: beta})
				} else if !c.found || omega > c.bestOmega {
					c.bestOmega, c.bestBeta, c.found = omega, beta, true
				}
			}
		}
	}
}

// walkSparse is the skip walk of one pass: every cursor advances along
// its own exponential-sliding-window trajectory. Offsets are visited in
// ascending order; cursors whose trajectories coincide at an offset
// share the window load and the normalization denominator.
func (s *Searcher) walkSparse(cs []cursor, g *segment, accs []queryAccum, scr *walkScratch) {
	if len(cs) == 1 {
		// One cursor needs no frontier structure at all.
		c := &cs[0]
		for s.stepSparse(c, &accs[c.q], g, g.scale*g.norm(c.beta)) {
		}
		return
	}
	if s.maxAdv+1 <= maxWheelSpan {
		s.walkSparseWheel(cs, g, accs, scr)
		return
	}
	s.walkSparseScan(cs, g, accs)
}

// stepSparse evaluates cursor c at its current offset — den is the
// pass's scaled window norm there, shared by every cursor standing at
// the offset — and advances it by the skip rule, returning false once
// the cursor is past the end of the pass.
func (s *Searcher) stepSparse(c *cursor, acc *queryAccum, g *segment, den float64) bool {
	p := &s.params
	beta := c.beta
	// Degenerate (constant) stored windows correlate as 0.
	omega := 0.0
	if den >= 1e-12 {
		omega = g.scale * kernel.Dot(c.zq, g.x[beta:beta+g.n]) / den
	}
	acc.evaluated++
	if omega > p.Delta {
		acc.candidates++
		if p.AllOffsets {
			acc.top.Push(Match{SetID: g.setID, Omega: omega, Beta: beta})
		} else if !c.found || omega > c.bestOmega {
			c.bestOmega, c.bestBeta, c.found = omega, beta, true
		}
	}
	if a := math.Abs(omega); a > c.env {
		c.env = a
	}
	adv := s.skipFor(c.env)
	c.beta += adv
	if adv < len(s.decay) {
		c.env *= s.decay[adv]
	} else {
		c.env *= decayPow(p.EnvDecay, adv)
	}
	return c.beta <= g.maxOff
}

// walkSparseWheel drives many cursors with a bucket-queue frontier:
// offsets are the wheel positions, each bucket holds the cursors
// standing there, and one sweep visits every occupied offset in
// ascending order. Finding the next frontier offset is O(1) amortized
// instead of the O(cursors) min-scan per offset — the batched-walk
// win at cloud batch sizes. Skips are bounded by s.maxAdv, so a wheel
// of s.maxAdv+1 buckets can never collide.
func (s *Searcher) walkSparseWheel(cs []cursor, g *segment, accs []queryAccum, scr *walkScratch) {
	w := s.maxAdv + 1
	if cap(scr.buckets) < w {
		scr.buckets = make([][]int32, w)
	}
	buckets := scr.buckets[:w]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	// Every cursor starts the pass at offset 0.
	for ci := range cs {
		buckets[0] = append(buckets[0], int32(ci))
	}
	for beta, active := 0, len(cs); active > 0; beta++ {
		slot := buckets[beta%w]
		if len(slot) == 0 {
			continue
		}
		// Shared across all cursors at this offset: the centred norm
		// (O(1) from prefix sums); the window data is hot in cache
		// after the first cursor's dot.
		den := g.scale * g.norm(beta)
		for _, ci := range slot {
			c := &cs[ci]
			if s.stepSparse(c, &accs[c.q], g, den) {
				buckets[c.beta%w] = append(buckets[c.beta%w], ci)
			} else {
				active--
			}
		}
		buckets[beta%w] = slot[:0]
	}
}

// walkSparseScan is the linear-frontier fallback for parameterizations
// whose maximum skip exceeds the wheel span: the smallest pending
// offset is found by scanning every cursor (the pre-wheel behaviour).
func (s *Searcher) walkSparseScan(cs []cursor, g *segment, accs []queryAccum) {
	for {
		beta := -1
		for i := range cs {
			if c := &cs[i]; c.beta <= g.maxOff && (beta < 0 || c.beta < beta) {
				beta = c.beta
			}
		}
		if beta < 0 {
			return
		}
		den := g.scale * g.norm(beta)
		for i := range cs {
			if c := &cs[i]; c.beta == beta {
				s.stepSparse(c, &accs[c.q], g, den)
			}
		}
	}
}
