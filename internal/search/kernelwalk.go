package search

import (
	"math"
	"math/bits"
	"sync"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
)

// KernelMode selects how ω is computed during a scan — the dispatch
// knob of the correlation kernel engine (internal/kernel).
type KernelMode string

const (
	// KernelAuto (the default) lets the scan choose per signal-set
	// and per query: exhaustive scans always take the FFT profile;
	// the skip walk starts on the scalar kernel and flips a cursor
	// onto the FFT profile only once the evaluations it has already
	// spent in the current set exceed the measured dense-profile
	// cost — a pay-as-you-go crossover, so the decision depends only
	// on (set, query), never on batch composition or sharding, and
	// results stay deterministic across worker counts.
	KernelAuto KernelMode = "auto"
	// KernelScalar forces unrolled scalar dot products everywhere —
	// the golden reference path.
	KernelScalar KernelMode = "scalar"
	// KernelFFT forces the dense FFT profile for every set pass,
	// including the skip walk (which then replays its trajectory over
	// the precomputed profile).
	KernelFFT KernelMode = "fft"
	// KernelQuant forces the compressed-domain kernel for every
	// quantized record: each pass widens the set's int16 counts once
	// into the worker's segment scratch (internal/search/walkquant.go)
	// and every ω is an exact dot over that scratch with an
	// integer-exact norm, never promoting records to the hot tier.
	// Float-canonical records, which have no quantized payload, fall
	// back to the float kernels.
	KernelQuant KernelMode = "quant"
)

// ParseKernelMode validates a -kernel flag value.
func ParseKernelMode(s string) (KernelMode, bool) {
	switch KernelMode(s) {
	case KernelAuto, KernelScalar, KernelFFT, KernelQuant:
		return KernelMode(s), true
	case "":
		return KernelAuto, true
	}
	return KernelAuto, false
}

// kernelCrossover calibrates the dense budget: the FFT profile of one
// (set, query) pair costs about kernelCrossover·m·log₂(m) scalar
// multiply-adds (two cached-plan real transforms, a bin multiply and
// the inverse, measured on the unrolled dot as the unit). A cursor
// that has already burned that many dot-product samples in one set
// pass finishes the set on the profile instead.
const kernelCrossover = 4.0

// maxWheelSpan bounds the bucket-queue wheel; parameter settings whose
// maximum skip exceeds it (pathologically small OmegaFloor) fall back
// to the linear frontier scan.
const maxWheelSpan = 4096

// denseBudget returns the scalar-evaluation count at which the dense
// profile becomes the cheaper way to finish a set pass, for transform
// size m and query length n.
func denseBudget(m, n int) int {
	lg := bits.Len(uint(m)) - 1
	return int(kernelCrossover * float64(m*lg) / float64(n))
}

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
	// dense cursor instead of recomputed per (cursor, offset).
	dens  []float64
	qSpec map[qspecKey][]complex128
	// specReady/densReady mark segSpec and dens as holding the current
	// pass's data; reset at the start of every (set, group) pass.
	specReady bool
	densReady bool
	buckets   [][]int32
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
// queries at once. Per signal-set and per length group it performs one
// merged walk over the pass segment, choosing per cursor between the
// sparse scalar kernel and the dense FFT profile (see KernelMode): B
// queries cost one pass of memory traffic, not B, and dense passes
// cost O(L log L) instead of O(n·L).
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
	// Exhaustive scans always profile (unless forced scalar); the
	// skip walk profiles per the mode.
	denseAll := p.Kernel != KernelScalar && (exhaustive || p.Kernel == KernelFFT)
	auto := !exhaustive && p.Kernel == KernelAuto
	maxAdv := 1
	if !exhaustive {
		maxAdv = s.skipFor(0)
	}
	for _, set := range shard {
		rec, ok := snap.Record(set.RecordID)
		if !ok {
			continue
		}
		// Tier residency: count the scan access (LRU stamp, possible
		// opportunistic promotion under a byte budget).
		rec.Touch()
		// Compressed-domain dispatch: quant mode takes it for every
		// quantized record; auto mode takes it for records that are
		// not currently hot — promoting a warm/cold record just to
		// scan it would defeat the tier budget. Scalar/FFT modes force
		// hot promotion via rec.Stats() below.
		var qv mdb.QuantView
		useQuant := false
		if p.Kernel == KernelQuant || (p.Kernel == KernelAuto && rec.Tier() != mdb.TierHot) {
			qv, useQuant = rec.Quant()
		}
		var stats *dsp.SlidingStats
		if !useQuant {
			stats = rec.Stats()
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
				c.beta, c.env, c.found, c.evals, c.dense = 0, 0, false, 0, false
			}
			g := &scr.seg
			if useQuant {
				scr.loadQuant(qv, set.Start, maxOff+n)
			} else {
				*g = segment{x: stats.Signal()[set.Start : set.Start+maxOff+n], scale: 1, stats: stats, start: set.Start}
			}
			g.setID, g.n, g.maxOff = set.ID, n, maxOff
			scr.specReady, scr.densReady = false, false
			if !denseAll {
				// The compressed-domain skip walk never flips dense: its
				// trajectory is the exact per-visit ω, whatever the batch.
				budget := 0
				if auto && !useQuant {
					budget = denseBudget(kernel.PlanSizeFor(maxOff+n), n)
				}
				s.walkSparse(cs, g, exhaustive, accs, budget, maxAdv, scr)
			}
			for ci := range cs {
				if denseAll || cs[ci].dense {
					s.walkDense(&cs[ci], g, exhaustive, accs, scr)
				}
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

// walkDense finishes one cursor's walk of the current pass from its
// FFT ω profile: the sliding-dot numerators for EVERY offset come from
// one multiply+inverse against the cached segment and query spectra
// (O(L log L)), and the cursor then visits its offsets — all of them
// when exhaustive, its skip trajectory otherwise — reading ω as
// profile[β]/‖window‖ in O(1) each. Over a quantized segment the
// profile is a PREFILTER, never a score: every exhaustive offset inside
// the δ·‖window‖ margin is rescored by the exact dot over the segment
// scratch, so candidate decisions and reported ω come from the same
// arithmetic as the compressed-domain skip walk.
func (s *Searcher) walkDense(c *cursor, g *segment, exhaustive bool, accs []queryAccum, scr *walkScratch) {
	maxOff, setID := g.maxOff, g.setID
	if c.beta > maxOff {
		return
	}
	p := &s.params
	prof := scr.engine.Profiler(len(g.x))
	scr.grow(prof.Bins(), prof.M())
	if !scr.specReady {
		prof.Spectrum(scr.segSpec, g.x)
		scr.specReady = true
	}
	if !scr.densReady {
		if cap(scr.dens) < maxOff+1 {
			scr.dens = make([]float64, maxOff+1)
		}
		scr.dens = scr.dens[:maxOff+1]
		g.norms(scr.dens)
		scr.densReady = true
	}
	qs := scr.querySpectrum(prof, c.q, c.zq)
	prof.Correlate(scr.profile, scr.segSpec, qs, scr.work)
	acc := &accs[c.q]
	acc.profiled++
	profile, dens := scr.profile, scr.dens
	if exhaustive {
		// The exhaustive replay only needs ω when it clears δ, so
		// most offsets get a multiply-compare against δ·‖window‖
		// (with a margin far wider than the rounding gap between the
		// two forms) instead of a division; the exact dot/norm > δ
		// test still decides every near-threshold offset, keeping
		// candidate classification identical to the always-divide
		// path.
		rescore := g.stats == nil
		acc.evaluated += maxOff + 1 - c.beta
		for beta := c.beta; beta <= maxOff; beta++ {
			den := dens[beta]
			if den < 1e-12 {
				// Degenerate (constant) stored windows correlate
				// as 0, matching dsp.SlidingStats.CorrAt.
				if 0 > p.Delta {
					acc.candidates++
					if p.AllOffsets {
						acc.top.Push(Match{SetID: setID, Omega: 0, Beta: beta})
					} else if !c.found || 0 > c.bestOmega {
						c.bestOmega, c.bestBeta, c.found = 0, beta, true
					}
				}
				continue
			}
			thresh := p.Delta * den
			if profile[beta] <= thresh-1e-9*(math.Abs(thresh)+1) {
				continue
			}
			num := profile[beta]
			if rescore {
				num = kernel.Dot(c.zq, g.x[beta:beta+g.n])
			}
			omega := num / den
			if omega > p.Delta {
				acc.candidates++
				if p.AllOffsets {
					acc.top.Push(Match{SetID: setID, Omega: omega, Beta: beta})
				} else if !c.found || omega > c.bestOmega {
					c.bestOmega, c.bestBeta, c.found = omega, beta, true
				}
			}
		}
		c.beta = maxOff + 1
		return
	}
	for beta := c.beta; beta <= maxOff; {
		den := dens[beta]
		// Degenerate (constant) stored windows correlate as 0,
		// matching dsp.SlidingStats.CorrAt.
		omega := 0.0
		if den >= 1e-12 {
			omega = profile[beta] / den
		}
		acc.evaluated++
		if omega > p.Delta {
			acc.candidates++
			if p.AllOffsets {
				acc.top.Push(Match{SetID: setID, Omega: omega, Beta: beta})
			} else if !c.found || omega > c.bestOmega {
				c.bestOmega, c.bestBeta, c.found = omega, beta, true
			}
		}
		if a := math.Abs(omega); a > c.env {
			c.env = a
		}
		adv := s.skipFor(c.env)
		beta += adv
		c.env *= decayPow(p.EnvDecay, adv)
	}
	c.beta = maxOff + 1
}

// walkSparse advances every cursor through one pass on the scalar
// kernel. Offsets are visited in ascending order; cursors whose
// trajectories coincide at an offset share the window load and the
// normalization denominator. With budget > 0 (auto mode), a cursor
// whose own evaluations cross the budget is marked dense and left for
// walkDense to finish — a per-cursor decision, so trajectories never
// depend on batch composition or sharding.
func (s *Searcher) walkSparse(cs []cursor, g *segment, exhaustive bool, accs []queryAccum, budget, maxAdv int, scr *walkScratch) {
	if len(cs) == 1 {
		s.walkSparseSingle(&cs[0], g, exhaustive, accs, budget)
		return
	}
	if maxAdv+1 <= maxWheelSpan {
		s.walkSparseWheel(cs, g, exhaustive, accs, budget, maxAdv, scr)
		return
	}
	s.walkSparseScan(cs, g, exhaustive, accs, budget)
}

// stepSparse evaluates cursor c at its current offset — den is the
// pass's scaled window norm there, shared by every cursor standing at
// the offset — and advances it, returning false once the cursor is
// finished with this pass (past the end, or flipped dense).
func (s *Searcher) stepSparse(c *cursor, acc *queryAccum, g *segment, den float64, exhaustive bool, budget int) bool {
	p := &s.params
	beta := c.beta
	// Degenerate (constant) stored windows correlate as 0.
	omega := 0.0
	if den >= 1e-12 {
		omega = g.scale * kernel.Dot(c.zq, g.x[beta:beta+g.n]) / den
	}
	acc.evaluated++
	c.evals++
	if omega > p.Delta {
		acc.candidates++
		if p.AllOffsets {
			acc.top.Push(Match{SetID: g.setID, Omega: omega, Beta: beta})
		} else if !c.found || omega > c.bestOmega {
			c.bestOmega, c.bestBeta, c.found = omega, beta, true
		}
	}
	if exhaustive {
		c.beta++
	} else {
		if a := math.Abs(omega); a > c.env {
			c.env = a
		}
		adv := s.skipFor(c.env)
		c.beta += adv
		c.env *= decayPow(p.EnvDecay, adv)
	}
	if c.beta > g.maxOff {
		return false
	}
	if budget > 0 && c.evals >= budget {
		c.dense = true
		return false
	}
	return true
}

// walkSparseSingle is the one-cursor fast path: no frontier structure
// at all.
func (s *Searcher) walkSparseSingle(c *cursor, g *segment, exhaustive bool, accs []queryAccum, budget int) {
	acc := &accs[c.q]
	for c.beta <= g.maxOff {
		if !s.stepSparse(c, acc, g, g.scale*g.norm(c.beta), exhaustive, budget) {
			return
		}
	}
}

// walkSparseWheel drives many cursors with a bucket-queue frontier:
// offsets are the wheel positions, each bucket holds the cursors
// standing there, and one sweep visits every occupied offset in
// ascending order. Finding the next frontier offset is O(1) amortized
// instead of the O(cursors) min-scan per offset — the batched-walk
// win at cloud batch sizes. Skips are bounded by maxAdv, so a wheel
// of maxAdv+1 buckets can never collide.
func (s *Searcher) walkSparseWheel(cs []cursor, g *segment, exhaustive bool, accs []queryAccum, budget, maxAdv int, scr *walkScratch) {
	w := maxAdv + 1
	if cap(scr.buckets) < w {
		scr.buckets = make([][]int32, w)
	}
	buckets := scr.buckets[:w]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	maxOff := g.maxOff
	active := 0
	for ci := range cs {
		if cs[ci].beta <= maxOff {
			buckets[cs[ci].beta%w] = append(buckets[cs[ci].beta%w], int32(ci))
			active++
		}
	}
	for beta := 0; beta <= maxOff && active > 0; beta++ {
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
			if s.stepSparse(c, &accs[c.q], g, den, exhaustive, budget) {
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
func (s *Searcher) walkSparseScan(cs []cursor, g *segment, exhaustive bool, accs []queryAccum, budget int) {
	for {
		beta := -1
		for i := range cs {
			if c := &cs[i]; !c.dense && c.beta <= g.maxOff && (beta < 0 || c.beta < beta) {
				beta = c.beta
			}
		}
		if beta < 0 {
			return
		}
		den := g.scale * g.norm(beta)
		for i := range cs {
			c := &cs[i]
			if c.beta != beta || c.dense {
				continue
			}
			s.stepSparse(c, &accs[c.q], g, den, exhaustive, budget)
		}
	}
}
