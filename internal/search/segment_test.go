package search

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"emap/internal/kernel"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// refResult is the reference's answer for one input, with the number of
// set passes it walked: what a same-length batch must count as
// SetPasses.
type refResult struct {
	*Result
	passes int
}

// refOmegaQ is ω over counts as internal/kernel's Walk documents it,
// written out: plain int64 loops for the five sums, then the float
// sequence — A = n·Σqc − Σq·Σc, D = n·Σx² − (Σx)² on either side,
// ω = A·(1/(√D_q·√D_c)), +0 unless the denominator is positive — every
// product rounded before it is subtracted.
func refOmegaQ(q, c []int16) float64 {
	var sq, sqq, sc, scc, sqc int64
	for i, v := range q {
		x, y := int64(v), int64(c[i])
		sq += x
		sqq += x * x
		sc += y
		scc += y * y
		sqc += x * y
	}
	n, fq, fc := float64(len(q)), float64(sq), float64(sc)
	dq := float64(n*float64(sqq)) - float64(fq*fq)
	dc := float64(n*float64(scc)) - float64(fc*fc)
	den := math.Sqrt(dq) * math.Sqrt(dc)
	if !(den > 0) {
		return 0
	}
	return (float64(n*float64(sqc)) - float64(fq*fc)) * (1 / den)
}

// refSearch is the in-package reference the search is tested against
// (the independent one, sharing no code, is oracle_test.go): it answers
// every input naively — per signal-set, per query, per visited offset
// refOmegaQ, a plain-loop Pearson correlation of the record's counts
// against the query's (an upload's as sent, a float window's as the wire
// quantizer makes them) — and shares only the trajectory rule (skipFor,
// DecayPow), the wire quantizer and TopK with the code under test. The
// walk must reproduce it with ==.
func refSearch(t *testing.T, store *mdb.Store, params Params, inputs []window, exhaustive bool) []refResult {
	t.Helper()
	s := NewSearcher(store, params)
	p := s.Params()
	snap := store.Snapshot()
	out := make([]refResult, len(inputs))
	for i, input := range inputs {
		n := input.len()
		qc := input.counts
		if qc == nil {
			qc, _ = proto.Quantize(input.samples)
		}
		res, top := refResult{Result: &Result{}}, NewTopK(p.TopK)
		for _, set := range snap.Sets() {
			rec, _ := snap.Record(set.RecordID)
			counts := rec.Quant().Counts
			maxOff := set.Length - 1
			if p.PaperSliceScan {
				maxOff = set.Length - n
			}
			if set.Start+maxOff+n > rec.Len() {
				maxOff = rec.Len() - n - set.Start
			}
			if maxOff < 0 {
				continue
			}
			res.passes++
			found, bestOmega, bestBeta, env := false, 0.0, 0, 0.0
			for beta := 0; beta <= maxOff; {
				abs := set.Start + beta
				omega := refOmegaQ(qc, counts[abs:abs+n])
				res.Evaluated++
				if omega > p.Delta {
					res.Candidates++
					if p.AllOffsets {
						top.Push(Match{SetID: set.ID, Omega: omega, Beta: beta})
					} else if !found || omega > bestOmega {
						found, bestOmega, bestBeta = true, omega, beta
					}
				}
				if exhaustive {
					beta++
					continue
				}
				if a := math.Abs(omega); a > env {
					env = a
				}
				adv := s.skipFor(env)
				beta += adv
				env *= kernel.DecayPow(p.EnvDecay, adv)
			}
			if found {
				top.Push(Match{SetID: set.ID, Omega: bestOmega, Beta: bestBeta})
			}
		}
		res.Matches = top.SortedDesc()
		out[i] = res
	}
	return out
}

// uploads returns the windows as an edge would upload them: quantized by
// the wire quantizer.
func uploads(inputs [][]float64) []window {
	ws := make([]window, len(inputs))
	for i, input := range inputs {
		counts, scale := proto.Quantize(input)
		ws[i] = window{counts: counts, scale: scale}
	}
	return ws
}

// assertBitIdentical pins got to the reference with == on every match
// field and on both cost counters.
func assertBitIdentical(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.Evaluated != ref.Evaluated || got.Candidates != ref.Candidates {
		t.Fatalf("%s: counters (%d eval, %d cand), reference (%d, %d)",
			label, got.Evaluated, got.Candidates, ref.Evaluated, ref.Candidates)
	}
	if len(got.Matches) != len(ref.Matches) {
		t.Fatalf("%s: %d matches, reference %d", label, len(got.Matches), len(ref.Matches))
	}
	for i := range ref.Matches {
		if got.Matches[i] != ref.Matches[i] {
			t.Fatalf("%s: match %d is %+v, reference %+v", label, i, got.Matches[i], ref.Matches[i])
		}
	}
}

// coldCopy saves store as a columnar snapshot and memory-maps it back:
// every record starts cold, its counts served by the page cache.
func coldCopy(t *testing.T, store *mdb.Store) *mdb.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cold.col")
	if err := store.Snapshot().SaveFileFormat(path, mdb.FormatColumnar); err != nil {
		t.Fatal(err)
	}
	cold, err := mdb.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return cold
}

// TestSegmentWalkBitIdentical: the walk must return exactly — == on
// SetID, Beta and Omega, equal counters — what the naive reference's
// per-visit integer sums and float sequence return, on the store as
// built, a warm heap load of its snapshot, a cold mapped one and one
// with some records copied to the heap, for the skip walk and the
// exhaustive walk, for float windows and for the same windows as
// uploaded counts, with the paper's slice bound on and off. The batch
// mixes two length groups (sharing one scratch), a window shorter than a
// checkpoint block and lengths that are not multiples of the kernel's
// 16-element block; under full coverage every record's last set has its
// trailing windows clipped at the record end.
func TestSegmentWalkBitIdentical(t *testing.T) {
	f := newFixture(t, 1)
	long := f.input(synth.Seizure, 0)
	inputs := [][]float64{
		f.input(synth.Normal, 0),
		long,
		long[:203],                    // not a multiple of 8
		f.input(synth.Normal, 1)[:50], // shorter than one checkpoint block
		f.input(synth.Seizure, 2),
	}
	clipped := false
	for _, set := range f.store.Snapshot().Sets() {
		rec, _ := f.store.Record(set.RecordID)
		clipped = clipped || set.Start+set.Length-1+len(long) > rec.Len()
	}
	if !clipped {
		t.Fatal("fixture has no set whose trailing windows are clipped at the record end")
	}
	eachResidentForm(t, f.store, func(name string, qs *mdb.Store) {
		for _, slice := range []bool{false, true} {
			// Delta 0.3 keeps the candidate counters busy; the default
			// δ is covered by the golden suites.
			params := Params{PaperSliceScan: slice, Delta: 0.3}
			for _, exhaustive := range []bool{false, true} {
				for form, ws := range map[string][]window{"float": floatWindows(inputs), "counts": uploads(inputs)} {
					label := fmt.Sprintf("%s/%s/slice=%v/exhaustive=%v", name, form, slice, exhaustive)
					ref := refSearch(t, qs, params, ws, exhaustive)
					got, err := NewSearcher(qs, params).runBatch(ws, exhaustive)
					if err != nil {
						t.Fatal(err)
					}
					matched := 0
					for i := range ws {
						matched += len(ref[i].Matches)
						assertBitIdentical(t, fmt.Sprintf("%s/query %d", label, i), ref[i].Result, got.Results[i])
						// A batch of one refills its lanes from the whole
						// shard instead of walking resident runs of eight
						// sets query by query: same answer.
						solo, err := NewSearcher(qs, params).run(ws[i], exhaustive)
						if err != nil {
							t.Fatal(err)
						}
						assertBitIdentical(t, fmt.Sprintf("%s/query %d alone", label, i), ref[i].Result, solo)
					}
					if matched < len(inputs) {
						t.Fatalf("%s: only %d reference matches — the comparison is near-vacuous", label, matched)
					}
				}
			}
		}
	})
}

// TestSegmentPrefixSumsMatchWindowSums: for random segments of a
// random-count record and random windows inside them — straddling
// block checkpoints, inside one block, whole-segment — the lane's
// prefix-sum differences are the record's exact WindowSums, and the
// pass's counts are the record's own memory, not a copy.
func TestSegmentPrefixSumsMatchWindowSums(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	counts := make([]int16, 3000)
	for i := range counts {
		counts[i] = int16(rng.Intn(1<<16) - 1<<15)
	}
	store := mdb.NewQuantizedStore()
	if _, err := store.InsertQuantized(&mdb.Record{ID: "r"}, counts, 0.25, 700, nil); err != nil {
		t.Fatal(err)
	}
	rec, _ := store.Record("r")
	qv := rec.Quant()
	l := &lane{}
	for trial := 0; trial < 200; trial++ {
		start := rng.Intn(len(counts) - 1)
		segLen := 1 + rng.Intn(len(counts)-start)
		l.loadQuant(qv.Counts[start : start+segLen]) // reuses (and regrows) one lane's buffer
		g := &l.seg
		if len(g.c) != segLen || &g.c[0] != &qv.Counts[start] {
			t.Fatalf("segment [%d,+%d): the pass does not alias the record's counts", start, segLen)
		}
		for w := 0; w < 50; w++ {
			beta := rng.Intn(segLen)
			n := 1 + rng.Intn(segLen-beta)
			sum, sumSq := qv.WindowSums(start+beta, n)
			if gs, gq := g.sums[beta+n][0]-g.sums[beta][0], g.sums[beta+n][1]-g.sums[beta][1]; gs != float64(sum) || gq != float64(sumSq) {
				t.Fatalf("segment [%d,+%d) window (%d,%d): prefix sums (%g,%g), WindowSums (%d,%d)",
					start, segLen, beta, n, gs, gq, sum, sumSq)
			}
		}
	}
}

// TestPooledScratchConcurrent: scans draw their scratch from one
// package-level pool, so concurrent Algorithm1/AlgorithmN/ExhaustiveN
// calls — against one Searcher, and against two Searchers over
// different stores (a snapshot loaded back, and the store as built) —
// must each return what the same call returns serially. Run under
// -race -count=10.
func TestPooledScratchConcurrent(t *testing.T) {
	f := newFixture(t, 1)
	long := f.input(synth.Seizure, 0)
	inputs := [][]float64{f.input(synth.Normal, 0), long, long[:128], f.input(synth.Normal, 2)}
	searchers := []*Searcher{
		NewSearcher(quantizedCopy(t, f.store), Params{Workers: 2}),
		NewSearcher(f.store, Params{Workers: 3}),
	}
	type call func(s *Searcher) (any, error)
	strip := func(rs ...*Result) any {
		out := make([]Result, len(rs))
		for i, r := range rs {
			out[i] = *r
			out[i].Elapsed = 0
		}
		return out
	}
	calls := []call{
		func(s *Searcher) (any, error) {
			r, err := s.Algorithm1(long)
			if err != nil {
				return nil, err
			}
			return strip(r), nil
		},
		func(s *Searcher) (any, error) {
			br, err := s.AlgorithmN(inputs)
			if err != nil {
				return nil, err
			}
			return strip(br.Results...), nil
		},
		func(s *Searcher) (any, error) {
			br, err := s.ExhaustiveN(inputs[1:3])
			if err != nil {
				return nil, err
			}
			return strip(br.Results...), nil
		},
	}
	want := make([][]any, len(searchers))
	for si, s := range searchers {
		for _, c := range calls {
			w, err := c(s)
			if err != nil {
				t.Fatal(err)
			}
			want[si] = append(want[si], w)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				si, ci := (g+rep)%len(searchers), (g/2+rep)%len(calls)
				got, err := calls[ci](searchers[si])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[si][ci]) {
					t.Errorf("goroutine %d: searcher %d call %d differs from its serial answer", g, si, ci)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSkipScanAllocsIndependentOfSets: a warmed-up skip scan draws its segment scratch from the pool, so its allocation
// count is a per-scan constant — scanning four times the signal-sets
// allocates no more.
func TestSkipScanAllocsIndependentOfSets(t *testing.T) {
	g := synth.NewGenerator(synth.Config{Seed: 5, ArchetypesPerClass: 1})
	samples := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 40}).Samples
	counts := make([]int16, len(samples))
	for i, v := range samples {
		counts[i] = int16(v * 50)
	}
	build := func(records int) *mdb.Store {
		store := mdb.NewQuantizedStore()
		for r := 0; r < records; r++ {
			c := append([]int16(nil), counts...)
			if _, err := store.InsertQuantized(&mdb.Record{ID: fmt.Sprint("r", r)}, c, 0.02, 1000, nil); err != nil {
				t.Fatal(err)
			}
		}
		return store
	}
	input := newFixture(t, 1).input(synth.Normal, 0)
	allocs := func(store *mdb.Store) (float64, int) {
		s := NewSearcher(store, Params{Workers: 1})
		res, err := s.Algorithm1(input) // warm-up: fills the pooled scratch
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := s.Algorithm1(input); err != nil {
				t.Fatal(err)
			}
		}), res.SetsScanned
	}
	small, smallSets := allocs(build(2))
	big, bigSets := allocs(build(8))
	if bigSets < smallSets+50 {
		t.Fatalf("stores too close in size: %d vs %d sets", smallSets, bigSets)
	}
	// The race detector makes sync.Pool drop a quarter of its Puts, and
	// a GC between runs can empty the pool: either costs a handful of
	// buffer allocations in some runs, on both stores alike. Growth
	// with the set count would cost at least one per extra set.
	if big > small+10 {
		t.Fatalf("skip scan allocations grow with the store: %.0f over %d sets, %.0f over %d sets",
			small, smallSets, big, bigSets)
	}
}
