package search

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
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
	// slot. Sorting the queries by length, then by a 128-bit hash of
	// their counts, puts equal ones side by side — no map, no per-query
	// byte-string garbage — and leaves the distinct ones in ascending
	// length order, which is the order a shard walks its length groups
	// in. A flat (uncorrelatable) input takes no part.
	order := make([]batchQuery, 0, len(inputs))
	for i, input := range inputs {
		// No signal-set is longer than mdb.MaxSliceLen, and bounding the
		// query with it bounds a pass, whose prefix sums must stay exact
		// (kernel.MaxWidenLen), and the integer dot.
		if n := input.len(); n == 0 || n > mdb.MaxSliceLen {
			return nil, ErrShortInput
		}
		if q, ok := input.query(); ok {
			order = append(order, batchQuery{q: q, key: hashQuery(q), input: i})
		}
	}
	slices.SortFunc(order, func(a, b batchQuery) int {
		return cmp.Or(cmp.Compare(len(a.q), len(b.q)), cmp.Compare(a.key.hi, b.key.hi),
			cmp.Compare(a.key.lo, b.key.lo), cmp.Compare(a.input, b.input))
	})
	uniques := make([][]int16, 0, len(order))
	run := 0 // where the uniques of the current (length, hash) run begin
	for k := range order {
		x := &order[k]
		if k == 0 || len(x.q) != len(order[k-1].q) || x.key != order[k-1].key {
			run = len(uniques)
		}
		// The collision-confirm compare behind the dedup hash: a hash
		// hit only merges equal queries.
		x.slot = run
		for x.slot < len(uniques) && !slices.Equal(uniques[x.slot], x.q) {
			x.slot++
		}
		if x.slot == len(uniques) {
			uniques = append(uniques, x.q)
		}
	}
	br.Unique = len(uniques)

	var accs []queryAccum
	if len(uniques) > 0 {
		workers := s.params.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		shards := snap.Shards(workers)
		scans := make([]shardScan, len(shards))
		var wg sync.WaitGroup
		for i, shard := range shards {
			wg.Add(1)
			go func(i int, shard []*mdb.SignalSet) {
				defer wg.Done()
				scans[i].accs, scans[i].passes = s.scanShardBatch(snap, shard, uniques, exhaustive)
			}(i, shard)
		}
		wg.Wait()
		// The first shard's accumulators take the others': on one worker
		// nothing is merged at all.
		for i := range scans {
			br.SetPasses += scans[i].passes
			if i == 0 {
				accs = scans[i].accs
				continue
			}
			for q := range accs {
				accs[q].top.Merge(scans[i].accs[q].top)
				accs[q].evaluated += scans[i].accs[q].evaluated
				accs[q].candidates += scans[i].accs[q].candidates
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

	// One Result per scanned query and a last one that every flat input
	// shares: it correlates with nothing, and an empty result rather than
	// an error lets the caller fall back.
	results := make([]Result, len(uniques)+1)
	for q := range accs {
		results[q] = Result{
			Matches:     accs[q].top.SortedDesc(),
			Evaluated:   accs[q].evaluated,
			Candidates:  accs[q].candidates,
			SetsScanned: len(sets),
			Elapsed:     br.Elapsed,
		}
	}
	results[len(uniques)].Elapsed = br.Elapsed
	for i := range br.Results {
		br.Results[i] = &results[len(uniques)]
	}
	for _, x := range order {
		br.Results[x.input] = &results[x.slot]
	}
	return br, nil
}

// batchQuery is one non-flat input of a batch on its way through the
// dedup: its counts, their hash, the input it answers and, once the
// sorted batch has been walked, the unique query that serves it.
type batchQuery struct {
	q     []int16
	key   queryKey
	input int
	slot  int
}

// shardScan is what one shard's worker hands back.
type shardScan struct {
	accs   []queryAccum
	passes int
}

// queryAccum accumulates one query's retrieval state across a scan.
type queryAccum struct {
	top        *TopK
	evaluated  int
	candidates int
}

// queryKey is the 128-bit FNV-style fingerprint of a query: two 64-bit
// lanes folded count by count, with the length mixed into the bases.
// Ordering a batch by it costs 16-byte compares instead of a byte-string
// allocation per query; hash hits are confirmed by an exact element
// compare, so a collision can never merge two distinct queries.
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
