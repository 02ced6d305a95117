package search

import (
	"sync"

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
// length, and the best match of the query now walking it. The walk
// itself — the query's β and |ω| envelope in this set — lives in the
// lane's slot of the scratch's kernel.Walk; what a query does in a set
// depends on (set, query) alone, whichever lane holds the set and
// whatever the other lanes hold.
type lane struct {
	set *mdb.SignalSet
	// counts is the record's, where they reside now — the warm heap or
	// the page cache behind a mapped snapshot — read in place.
	counts []int16

	// opened: seg is a pass of the current length group.
	opened bool
	seg    segment
	qsums  [][2]float64 // loadQuant's buffer

	bestOmega float64
	bestBeta  int
	found     bool
}

// walkScratch is one shard worker's reusable kernel state: the lanes
// with their prefix-sum buffers, the walk that steps them and the shard
// position the lanes are filled from live across every set the worker
// scans — and, through scratchPool, across scans — so the walk allocates
// nothing per set.
type walkScratch struct {
	// The shard being scanned: take hands shard[next] to a lane; passes
	// counts the (set, length-group) passes opened.
	snap   mdb.Snapshot
	shard  []*mdb.SignalSet
	next   int
	passes int
	// walk holds the lanes' trajectories as the step kernel wants them.
	// It lives here, not on walkLanes' stack, because the kernel is
	// called through a route variable, which would make a local escape —
	// one allocation per walk. The pad puts it 56 bytes into the scratch,
	// because the allocator puts an 8-byte header before an object of
	// this size: the walk then starts on a cache line, where none of the
	// vectors the step loads straddles two (≈ 10 % of a scan when they
	// do; TestWalkStartsOnCacheLine).
	_    [8]byte
	walk kernel.Walk
	lane [lanes]lane
}

// scratchPool recycles walkScratch values across scans, so the lanes'
// buffers cost no steady-state allocation. It is package-level on
// purpose: a sync.Pool FIELD on Searcher keeps a finished Searcher —
// and through it a whole store — reachable from the runtime's pool list
// for two GC cycles. A pooled scratch references only its own buffers:
// putScratch drops the snapshot, every lane's set and counts aliases,
// and what the walk still points at.
var scratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

func getScratch(snap mdb.Snapshot, shard []*mdb.SignalSet) *walkScratch {
	scr := scratchPool.Get().(*walkScratch)
	scr.snap, scr.shard, scr.next, scr.passes = snap, shard, 0, 0
	return scr
}

func putScratch(scr *walkScratch) {
	scr.snap, scr.shard = mdb.Snapshot{}, nil
	for k := range scr.lane {
		l := &scr.lane[k]
		l.set, l.counts, l.seg = nil, nil, segment{}
	}
	scr.walk.Release()
	scratchPool.Put(scr)
}

// scanShardBatch scans a contiguous run of signal-sets for all unique
// queries at once under Algorithm 1's rule or, exhaustive, the
// baseline's unit advance — by the scan's one route, the lane walk.
// uniques must be in ascending length order (runBatch's dedup leaves
// them so): a run of equal lengths is one length group. The order sets
// reach the top-K in does not matter (TopK ranks by a total order).
func (s *Searcher) scanShardBatch(snap mdb.Snapshot, shard []*mdb.SignalSet, uniques [][]int16, exhaustive bool) ([]queryAccum, int) {
	rule := &s.rule
	if exhaustive {
		rule = &s.unit
	}
	accs := make([]queryAccum, len(uniques))
	for i := range accs {
		accs[i].top = NewTopK(s.params.TopK)
	}
	scr := getScratch(snap, shard)
	defer putScratch(scr)
	if len(uniques) == 1 {
		// One query: a lane that runs off its set takes the next set of
		// the shard, so eight sets are in flight until the shard runs
		// out.
		for k := range scr.lane {
			s.refill(scr, &scr.lane[k], len(uniques[0]))
		}
		s.walkLanes(scr, uniques[0], &accs[0], rule, true)
		return accs, scr.passes
	}
	// Several queries: lanes must share a query (that is what lets one
	// kernel step serve four of them), so a run of sets is held resident
	// — its prefix sums built once per length group, the queries of one
	// length being neighbours in uniques — and walked query by query.
	for {
		held := 0
		for held < lanes && scr.take(&scr.lane[held]) {
			held++
		}
		if held == 0 {
			break
		}
		for q := 0; q < len(uniques); q++ {
			if n := len(uniques[q]); q == 0 || n != len(uniques[q-1]) {
				for k := range scr.lane {
					l := &scr.lane[k]
					l.opened = k < held && s.open(scr, l, n)
				}
			}
			s.walkLanes(scr, uniques[q], &accs[q], rule, false)
		}
	}
	return accs, scr.passes
}

// take makes lane l's the next signal-set of the shard. Tier residency:
// it counts the scan access (LRU stamp, possibly a heap copy of a mapped
// record under a byte budget) once per set, in shard order, and reads
// the counts after it: a fresh heap copy is where the scan should read
// from.
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
		l.set, l.counts = set, rec.Quant().Counts
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
	if set.Start+maxOff+n > len(l.counts) {
		maxOff = len(l.counts) - n - set.Start
	}
	if maxOff < 0 {
		return false
	}
	scr.passes++
	l.loadQuant(l.counts[set.Start : set.Start+maxOff+n])
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

// walkLanes is the walk of one query under rule: q walks every opened
// lane's pass from its head. The lanes' trajectories are seated in the
// scratch's kernel.Walk, which steps them four at a time — window sums,
// dots, ω, envelope, skip, all in the kernel — and comes back here only
// when a step has an event: a candidate to weigh, or a lane past the end
// of its pass, whose best match goes to the top-K and which, with
// refill, takes the next set of the shard. A lane with nothing left to
// take is masked: the walk ends when every lane is.
//
// Lanes never exchange anything but the query: each lane's ω is the
// kernel's sequence over its own window bit for bit (the kernel's
// contract), so every lane's trajectory, its candidates and its best
// match are what a lone walk of that set gives. What lanes do change is
// the order matches reach the top-K, which is why TopK ranks by a total
// order.
func (s *Searcher) walkLanes(scr *walkScratch, q []int16, acc *queryAccum, rule *kernel.SkipRule, refill bool) {
	w := &scr.walk
	w.ResetQ(q, rule)
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
				if refill && s.refill(scr, l, len(q)) {
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
	w.SeatQ(at, l.seg.c, l.seg.sums, l.seg.maxOff)
}
