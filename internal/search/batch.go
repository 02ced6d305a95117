package search

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"emap/internal/dsp"
	"emap/internal/mdb"
)

// BatchResult is the outcome of one multi-query cloud search: the
// per-query results plus the batch-level cost accounting that the
// scan-amortization claims are stated in.
type BatchResult struct {
	// Results holds one Result per input query, in input order.
	// Queries that z-normalize identically share one scan and point
	// at ONE shared (read-only) Result — callers can rely on pointer
	// equality to spot deduplicated queries and reuse downstream
	// work.
	Results []*Result
	// Unique is the number of distinct z-normalized queries actually
	// scanned after deduplication.
	Unique int
	// Evaluated is the total number of ω evaluations performed for
	// the whole batch. With B identical queries it equals the cost of
	// a single-query search; it never exceeds the sum of B separate
	// searches. Offsets an exhaustive scan reads off its FFT profile
	// count exactly like the skip walk's dot products: Evaluated is the
	// algorithmic exploration metric of Fig. 7.
	Evaluated int
	// SetPasses counts signal-set visits: one per signal-set per
	// query-length group, however many queries ride on the pass. For
	// a batch of same-length queries it equals the number of
	// searchable signal-sets — independent of the batch size, which
	// is the memory-bandwidth amortization the batched path exists
	// for.
	SetPasses int
	// ProfileSets counts (signal-set pass × unique query) ω profiles
	// computed by the FFT kernel engine: every pair of an exhaustive
	// scan, none of a skip walk.
	ProfileSets int
	// Elapsed is the wall-clock duration of the whole batch search.
	Elapsed time.Duration
}

// AlgorithmN runs the paper's signal cross-correlation search for a
// batch of (already bandpass-filtered) input windows in one pass over
// the mega-database: every signal-set's pass segment is built once per
// distinct query length, all queries walk it while it is resident, and
// queries that z-normalize identically are deduplicated into a single
// scan. Each query's matches are exactly what Algorithm1 would return
// for it alone.
func (s *Searcher) AlgorithmN(inputs [][]float64) (*BatchResult, error) {
	return s.runBatch(inputs, false)
}

// ExhaustiveN is the stride-1 exhaustive baseline over a batch of
// input windows, sharing one pass per signal-set like AlgorithmN.
func (s *Searcher) ExhaustiveN(inputs [][]float64) (*BatchResult, error) {
	return s.runBatch(inputs, true)
}

// runBatch is the shared core behind Algorithm1/Exhaustive (batch size
// one) and AlgorithmN/ExhaustiveN.
func (s *Searcher) runBatch(inputs [][]float64, exhaustive bool) (*BatchResult, error) {
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

	// Z-normalize every query once and deduplicate bit-identical
	// normalized queries: repeated windows (the tracking-loop steady
	// state) collapse to one scan slot. slot[i] is the unique-query
	// index serving input i, or -1 for a flat (uncorrelatable) input.
	// The dedup probe is a 128-bit hash of the float bits — one map
	// lookup, no per-query byte-string garbage — confirmed by an
	// exact element compare on every hash hit.
	var uniques [][]float64
	slot := make([]int, len(inputs))
	seen := make(map[zqKey][]int, len(inputs))
	for i, input := range inputs {
		// No signal-set is longer than mdb.MaxSliceLen, and bounding the
		// query with it bounds a pass, whose prefix sums must stay exact
		// (kernel.MaxWidenLen).
		if len(input) == 0 || len(input) > mdb.MaxSliceLen {
			return nil, ErrShortInput
		}
		zq := make([]float64, len(input))
		if dsp.ZNormalizeTo(zq, input) == 0 {
			slot[i] = -1
			continue
		}
		key := zqHash(zq)
		dup := -1
		for _, j := range seen[key] {
			// The collision-confirm compare behind the dedup hash: a
			// hash hit only merges bit-equal windows.
			if slices.Equal(uniques[j], zq) {
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
		uniques = append(uniques, zq)
	}
	br.Unique = len(uniques)

	accs := make([]queryAccum, len(uniques))
	for i := range accs {
		accs[i].top = NewTopK(s.params.TopK)
	}
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
		for i := range shards {
			br.SetPasses += shardPasses[i]
			for q := range accs {
				accs[q].top.Merge(shardAccs[i][q].top)
				accs[q].evaluated += shardAccs[i][q].evaluated
				accs[q].candidates += shardAccs[i][q].candidates
				accs[q].profiled += shardAccs[i][q].profiled
			}
		}
	}
	for q := range accs {
		br.Evaluated += accs[q].evaluated
		br.ProfileSets += accs[q].profiled
	}
	br.Elapsed = time.Since(start)

	perSlot := make([]*Result, len(uniques))
	for q := range accs {
		perSlot[q] = &Result{
			Matches:     accs[q].top.SortedDesc(),
			Evaluated:   accs[q].evaluated,
			Candidates:  accs[q].candidates,
			ProfileSets: accs[q].profiled,
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
	profiled   int
}

// lenGroup is the set of unique-query indexes sharing one window
// length; queries in one group share a signal-set's pass segment — one
// dequantization, however many of them walk it.
type lenGroup struct {
	n  int
	qs []int
}

// groupByLen buckets unique queries by window length, in ascending
// length order so the scan is deterministic.
func groupByLen(uniques [][]float64) []lenGroup {
	byLen := make(map[int][]int)
	for q, zq := range uniques {
		byLen[len(zq)] = append(byLen[len(zq)], q)
	}
	groups := make([]lenGroup, 0, len(byLen))
	for n, qs := range byLen {
		groups = append(groups, lenGroup{n: n, qs: qs})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].n < groups[j].n })
	return groups
}

// zqKey is the 128-bit FNV-style fingerprint of a z-normalized query:
// two 64-bit lanes folded word-at-a-time over the float bits, with the
// length mixed into the bases. Map probes cost one 16-byte compare
// instead of an 8·n-byte string allocation per query; hash hits are
// confirmed by an exact element compare, so a collision can never
// merge two distinct queries.
type zqKey struct{ hi, lo uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func zqHash(zq []float64) zqKey {
	hi := (uint64(fnvOffset64) ^ uint64(len(zq))) * fnvPrime64
	lo := (hi ^ 0x9e3779b97f4a7c15) * fnvPrime64
	for _, v := range zq {
		b := math.Float64bits(v)
		hi = (hi ^ b) * fnvPrime64
		lo = (lo ^ bits.RotateLeft64(b, 31)) * fnvPrime64
	}
	return zqKey{hi, lo}
}
