package search

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"emap/internal/mdb"
	"emap/internal/proto"
)

// BatchResult is the outcome of one multi-query cloud search: the
// per-query results plus the batch-level cost accounting that the
// scan-amortization claims are stated in.
type BatchResult struct {
	// Results holds one Result per input query, in input order.
	// Queries whose counts are identical (see window.counts) share one
	// scan and point at ONE shared (read-only)
	// Result — callers can rely on pointer equality to spot
	// deduplicated queries and reuse downstream work.
	Results []*Result
	// Unique is the number of distinct queries actually scanned after
	// deduplication.
	Unique int
	// Evaluated is the total number of ω evaluations performed for
	// the whole batch. With B identical queries it equals the cost of
	// a single-query search; it never exceeds the sum of B separate
	// searches. Evaluated is the algorithmic exploration metric of
	// Fig. 7.
	Evaluated int
	// SetPasses counts signal-set visits: one per signal-set per
	// query-length group, however many queries ride on the pass. For
	// a batch of same-length queries it equals the number of
	// searchable signal-sets — independent of the batch size, which
	// is the memory-bandwidth amortization the batched path exists
	// for.
	SetPasses int
	// Elapsed is the wall-clock duration of the whole batch search.
	Elapsed time.Duration
}

// AlgorithmN runs the paper's signal cross-correlation search for a
// batch of (already bandpass-filtered) input windows in one pass over
// the mega-database: every signal-set's pass is built once per distinct
// query length, all queries walk it while it is resident, and queries
// whose counts are identical are deduplicated into a single scan. Each query's matches are exactly what Algorithm1
// would return for it alone.
func (s *Searcher) AlgorithmN(inputs [][]float64) (*BatchResult, error) {
	return s.runBatch(floatWindows(inputs), false)
}

// AlgorithmNCounts is AlgorithmN for uploaded windows (see
// Algorithm1Counts).
func (s *Searcher) AlgorithmNCounts(inputs []Counts) (*BatchResult, error) {
	ws := make([]window, len(inputs))
	for i, c := range inputs {
		ws[i] = window{counts: c.Samples, scale: c.Scale}
	}
	return s.runBatch(ws, false)
}

// ExhaustiveN is the stride-1 exhaustive baseline over a batch of
// input windows, sharing one pass per signal-set like AlgorithmN.
func (s *Searcher) ExhaustiveN(inputs [][]float64) (*BatchResult, error) {
	return s.runBatch(floatWindows(inputs), true)
}

func floatWindows(inputs [][]float64) []window {
	ws := make([]window, len(inputs))
	for i, input := range inputs {
		ws[i] = window{samples: input}
	}
	return ws
}

// window is one input of a batch in the form the caller has it: µV
// samples, or the counts an edge uploaded and their µV-per-count step.
type window struct {
	samples []float64
	counts  []int16
	scale   float32
}

func (w window) len() int { return max(len(w.samples), len(w.counts)) }

// query is the one form a scan reads a window in: int16 counts, against
// the records' own. An upload's counts are the query as sent; a float
// window's are the wire quantizer's (proto.Quantize), made once per
// scan, so a caller holding µV samples and an edge uploading them search
// by the same integers. ok is false for a flat window — all counts
// equal, or a non-finite sample, which has no counts — which correlates
// with nothing.
func (w window) query() (q []int16, ok bool) {
	q = w.counts
	if q == nil {
		for _, v := range w.samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, false
			}
		}
		q, _ = proto.Quantize(w.samples)
	}
	for _, c := range q[1:] {
		if c != q[0] {
			return q, true
		}
	}
	return q, false
}

// runBatch is the shared core behind Algorithm1/Exhaustive (batch size
// one) and AlgorithmN/ExhaustiveN.
func (s *Searcher) runBatch(inputs []window, exhaustive bool) (*BatchResult, error) {
	start := time.Now()
	br := &BatchResult{Results: make([]*Result, len(inputs))}
	if len(inputs) == 0 {
		br.Elapsed = time.Since(start)
		return br, nil
	}
	// One epoch snapshot serves the whole batch: the set list, the
	// shard partition and every record lookup below come from the
	// same immutable view, so a concurrent Insert (live ingest)
	// neither tears the scan nor shifts its results mid-flight.
	snap := s.store.Snapshot()
	sets := snap.Sets()

	// Build every query once and deduplicate identical ones: repeated
	// windows (the tracking-loop steady state) collapse to one scan
	// slot. slot[i] is the unique-query index serving input i, or -1 for
	// a flat (uncorrelatable) input. The dedup probe is a 128-bit hash
	// of the counts — one map lookup, no per-query byte-string garbage —
	// confirmed by an exact element compare on every hash hit.
	var uniques [][]int16
	slot := make([]int, len(inputs))
	seen := make(map[queryKey][]int, len(inputs))
	for i, input := range inputs {
		// No signal-set is longer than mdb.MaxSliceLen, and bounding the
		// query with it bounds a pass, whose prefix sums must stay exact
		// (kernel.MaxWidenLen), and the integer dot.
		if n := input.len(); n == 0 || n > mdb.MaxSliceLen {
			return nil, ErrShortInput
		}
		q, ok := input.query()
		if !ok {
			slot[i] = -1
			continue
		}
		key := hashQuery(q)
		dup := -1
		for _, j := range seen[key] {
			// The collision-confirm compare behind the dedup hash: a
			// hash hit only merges equal queries.
			if slices.Equal(uniques[j], q) {
				dup = j
				break
			}
		}
		if dup >= 0 {
			slot[i] = dup
			continue
		}
		seen[key] = append(seen[key], len(uniques))
		slot[i] = len(uniques)
		uniques = append(uniques, q)
	}
	br.Unique = len(uniques)

	var accs []queryAccum
	if len(uniques) > 0 {
		groups := groupByLen(uniques)
		workers := s.params.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		shards := snap.Shards(workers)
		shardAccs := make([][]queryAccum, len(shards))
		shardPasses := make([]int, len(shards))
		var wg sync.WaitGroup
		for i, shard := range shards {
			wg.Add(1)
			go func(i int, shard []*mdb.SignalSet) {
				defer wg.Done()
				shardAccs[i], shardPasses[i] = s.scanShardBatch(snap, shard, uniques, groups, exhaustive)
			}(i, shard)
		}
		wg.Wait()
		// The first shard's accumulators take the others': on one worker
		// nothing is merged at all.
		for i := range shards {
			br.SetPasses += shardPasses[i]
			if i == 0 {
				accs = shardAccs[i]
				continue
			}
			for q := range accs {
				accs[q].top.Merge(shardAccs[i][q].top)
				accs[q].evaluated += shardAccs[i][q].evaluated
				accs[q].candidates += shardAccs[i][q].candidates
			}
		}
	}
	if accs == nil {
		// An empty store has no shard.
		accs = make([]queryAccum, len(uniques))
		for q := range accs {
			accs[q].top = NewTopK(s.params.TopK)
		}
	}
	for q := range accs {
		br.Evaluated += accs[q].evaluated
	}
	br.Elapsed = time.Since(start)

	perSlot := make([]*Result, len(uniques))
	for q := range accs {
		perSlot[q] = &Result{
			Matches:     accs[q].top.SortedDesc(),
			Evaluated:   accs[q].evaluated,
			Candidates:  accs[q].candidates,
			SetsScanned: len(sets),
			Elapsed:     br.Elapsed,
		}
	}
	for i := range inputs {
		if slot[i] < 0 {
			// A flat input correlates with nothing; an empty result
			// rather than an error lets the caller fall back.
			br.Results[i] = &Result{Elapsed: br.Elapsed}
			continue
		}
		br.Results[i] = perSlot[slot[i]]
	}
	return br, nil
}

// queryAccum accumulates one query's retrieval state across a scan.
type queryAccum struct {
	top        *TopK
	evaluated  int
	candidates int
}

// lenGroup is the set of unique-query indexes sharing one window
// length; queries in one group share a signal-set's pass — one sweep
// for its prefix sums, however many of them walk it.
type lenGroup struct {
	n  int
	qs []int
}

// groupByLen buckets unique queries by window length, in ascending
// length order so the scan is deterministic.
func groupByLen(uniques [][]int16) []lenGroup {
	byLen := make(map[int][]int)
	for q := range uniques {
		n := len(uniques[q])
		byLen[n] = append(byLen[n], q)
	}
	groups := make([]lenGroup, 0, len(byLen))
	for n, qs := range byLen {
		groups = append(groups, lenGroup{n: n, qs: qs})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].n < groups[j].n })
	return groups
}

// queryKey is the 128-bit FNV-style fingerprint of a query: two 64-bit
// lanes folded count by count, with the length mixed into the bases. Map
// probes cost one 16-byte compare instead of a byte-string allocation
// per query; hash hits are confirmed by an exact element compare, so a
// collision can never merge two distinct queries.
type queryKey struct{ hi, lo uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashQuery(q []int16) queryKey {
	hi := (uint64(fnvOffset64) ^ uint64(len(q))) * fnvPrime64
	lo := (hi ^ 0x9e3779b97f4a7c15) * fnvPrime64
	for _, c := range q {
		b := uint64(uint16(c))
		hi = (hi ^ b) * fnvPrime64
		lo = (lo ^ bits.RotateLeft64(b, 31)) * fnvPrime64
	}
	return queryKey{hi, lo}
}
