package search

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
	"emap/internal/synth"
)

// refSearch is the one oracle the search is tested against: it answers
// every input naively — per signal-set, per query, per visited offset a
// plain-loop Pearson correlation over the record's stored samples — and
// shares only the trajectory rule (skipFor, DecayPow) and TopK with the
// code under test. A float record is correlated by dsp.Pearson (two
// passes: means, then centred sums); a quantized one from exact integer
// window sums over its counts and kernel.DotQF, the arithmetic the
// segment walk must reproduce with ==. Each Result's ProfileSets is the
// number of set passes the reference walked for that input: what an
// exhaustive scan must profile, and what a same-length batch must count
// as SetPasses.
func refSearch(t *testing.T, store *mdb.Store, params Params, inputs [][]float64, exhaustive bool) []*Result {
	t.Helper()
	s := NewSearcher(store, params)
	p := s.Params()
	snap := store.Snapshot()
	out := make([]*Result, len(inputs))
	for i, input := range inputs {
		zq := make([]float64, len(input))
		if dsp.ZNormalizeTo(zq, input) == 0 {
			t.Fatalf("reference input %d is flat", i)
		}
		n, fn := len(zq), float64(len(zq))
		res, top := &Result{}, NewTopK(p.TopK)
		for _, set := range snap.Sets() {
			rec, _ := snap.Record(set.RecordID)
			qv, quantized := rec.Quant()
			var samples []float64
			if !quantized {
				samples = rec.Float()
			}
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
			res.ProfileSets++
			found, bestOmega, bestBeta, env := false, 0.0, 0, 0.0
			for beta := 0; beta <= maxOff; {
				abs := set.Start + beta
				omega := 0.0
				if quantized {
					var sum, sumSq int64
					for _, c := range qv.Counts[abs : abs+n] {
						sum += int64(c)
						sumSq += int64(c) * int64(c)
					}
					v := float64(sumSq) - float64(sum)*float64(sum)/fn
					if v < 0 {
						v = 0
					}
					// The two walks spell the cancelling record scale
					// differently; both spellings are pinned.
					if exhaustive {
						if den := math.Sqrt(v); den >= 1e-12 {
							omega = kernel.DotQF(zq, qv.Counts[abs:abs+n]) / den
						}
					} else if den := qv.Scale * math.Sqrt(v); den >= 1e-12 {
						omega = qv.Scale * kernel.DotQF(zq, qv.Counts[abs:abs+n]) / den
					}
				} else {
					omega = dsp.Pearson(zq, samples[abs:abs+n])
				}
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

// TestSegmentWalkBitIdentical: the segment-scratch walk must return
// exactly — == on SetID, Beta and Omega, equal counters — what the
// naive reference's per-visit window sums + DotQF return, on a warm
// heap store and a cold mapped one, for the skip walk and the exhaustive walk,
// with the paper's slice bound on and off. The batch mixes two length
// groups (sharing one scratch), a window shorter than a checkpoint
// block and lengths that are not multiples of the kernel's 16-element
// block; under full coverage every record's last set has its trailing
// windows clipped at the record end.
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
	eachQuantizedForm(t, f.store, func(name string, qs *mdb.Store) {
		for _, slice := range []bool{false, true} {
			// Delta 0.3 keeps the candidate counters busy; the default
			// δ is covered by the golden suites.
			params := Params{PaperSliceScan: slice, Delta: 0.3}
			for _, exhaustive := range []bool{false, true} {
				label := fmt.Sprintf("%s/slice=%v/exhaustive=%v", name, slice, exhaustive)
				ref := refSearch(t, qs, params, inputs, exhaustive)
				got, err := NewSearcher(qs, params).runBatch(inputs, exhaustive)
				if err != nil {
					t.Fatal(err)
				}
				matched := 0
				for i := range inputs {
					matched += len(ref[i].Matches)
					assertBitIdentical(t, fmt.Sprintf("%s/query %d", label, i), ref[i], got.Results[i])
					// A batch of one refills its lanes from the whole
					// shard instead of walking resident runs of four
					// sets query by query: same answer.
					solo, err := NewSearcher(qs, params).run(inputs[i], exhaustive)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, fmt.Sprintf("%s/query %d alone", label, i), ref[i], solo)
				}
				if matched < len(inputs) {
					t.Fatalf("%s: only %d reference matches — the comparison is near-vacuous", label, matched)
				}
			}
		}
	})
}

// TestSegmentPrefixSumsMatchWindowSums: for random segments of a
// random-count record and random windows inside them — straddling
// block checkpoints, inside one block, whole-segment — the scratch's
// prefix-sum differences are the record's exact WindowSums and its
// widened samples are the counts.
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
	qv, _ := rec.Quant()
	l := &lane{}
	for trial := 0; trial < 200; trial++ {
		start := rng.Intn(len(counts) - 1)
		segLen := 1 + rng.Intn(len(counts)-start)
		l.loadQuant(qv, start, segLen) // reuses (and regrows) one lane's buffers
		g := &l.seg
		for i, x := range g.x {
			if x != float64(counts[start+i]) {
				t.Fatalf("segment [%d,+%d): x[%d] = %g, count %d", start, segLen, i, x, counts[start+i])
			}
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
// different stores (one quantized, one float) with different engines —
// must each return what the same call returns serially. Run under
// -race -count=10.
func TestPooledScratchConcurrent(t *testing.T) {
	f := newFixture(t, 1)
	long := f.input(synth.Seizure, 0)
	inputs := [][]float64{f.input(synth.Normal, 0), long, long[:128], f.input(synth.Normal, 2)}
	searchers := []*Searcher{
		NewSearcher(quantizedCopy(t, f.store), Params{Workers: 2}),
		NewSearcherWithEngine(f.store, Params{Workers: 3}, kernel.NewEngine()),
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

// TestSkipScanAllocsIndependentOfSets: a warmed-up compressed-domain
// skip scan draws its segment scratch from the pool, so its allocation
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
