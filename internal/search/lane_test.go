package search

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"emap/internal/mdb"
	"emap/internal/synth"
)

// laneStore builds a store with the given number of
// full-length (1 000-sample) signal-sets, split over two long records
// with a short record between them: 300 samples cut into three
// 100-sample sets, every one shorter than a one-second query. Under the
// paper's slice bound none of the three has an offset, so exactly
// `sets` sets are searchable; under full coverage the first has 45
// (clipped at the record end) and the other two none — a lane refill
// that must step over sets mid-shard either way.
func laneStore(t *testing.T, f *fixture, sets int) *mdb.Store {
	t.Helper()
	store := mdb.NewQuantizedStore()
	insert := func(id string, class synth.Class, samples, sliceLen int) {
		// Band-passed like the fixture's own store, so the fixture's
		// queries find candidates in it.
		src := f.fir.Apply(f.gen.Instance(class, 0, synth.InstanceOpts{DurSeconds: float64(samples/256 + 2)}).Samples)[200 : 200+samples]
		counts := make([]int16, samples)
		for i, v := range src {
			counts[i] = int16(v * 50)
		}
		if _, err := store.InsertQuantized(&mdb.Record{ID: id}, counts, 0.02, sliceLen, nil); err != nil {
			t.Fatal(err)
		}
	}
	first := (sets + 1) / 2
	insert("a", synth.Normal, first*1000+300, 1000)
	insert("short", synth.Normal, 300, 100)
	if rest := sets - first; rest > 0 {
		insert("c", synth.Seizure, rest*1000+120, 1000)
	}
	return store
}

// TestLaneWalkSetCounts: the lane walk against the naive reference with
// == on SetID, Beta and Omega and equal Evaluated, Candidates and
// SetPasses, for Algorithm 1 and (under the default floor) for the
// exhaustive baseline, over stores with 1, 3, 4, 7, 8, 9 and 17 (paper bound) or
// one more (full coverage) searchable sets — every shape the two groups
// of four can take: one group part-filled and the other never stepped,
// one full, two with a lane masked from the start, two full, and
// remainders that arrive by refill and leave lanes masked one by one —
// with unsearchable sets between two long records, with every candidate
// offset retained (AllOffsets) and only the best per set, with the
// default skip rule (tabled: the kernel's vector step where the machine
// has one) and with a floor so low that the rule has no decay table (the
// portable step, whatever the machine), for a lone query (lanes refilled
// from the shard) and for a batch of two length groups (resident runs
// walked query by query).
func TestLaneWalkSetCounts(t *testing.T) {
	f := newFixture(t, 1)
	long := f.input(synth.Normal, 0)
	inputs := [][]float64{long, f.input(synth.Seizure, 1), long[:203]}
	candidates := 0
	for _, sets := range []int{1, 3, 4, 7, 8, 9, 17} {
		store := laneStore(t, f, sets)
		for _, slice := range []bool{false, true} {
			for _, all := range []bool{false, true} {
				for _, floor := range []float64{0, 1e-4} {
					params := Params{PaperSliceScan: slice, AllOffsets: all, OmegaFloor: floor, Delta: 0.3, Workers: 1}
					label := fmt.Sprintf("%d sets/slice=%v/all=%v/floor=%g", sets, slice, all, floor)
					ref := refSearch(t, store, params, floatWindows(inputs), false)
					if want := map[bool]int{true: sets, false: sets + 1}[slice]; ref[0].passes != want {
						t.Fatalf("%s: the reference walks %d sets for a one-second query, want %d", label, ref[0].passes, want)
					}
					s := NewSearcher(store, params)
					if tabled := s.rule.Decay != nil; tabled != (floor == 0) {
						t.Fatalf("%s: decay table present = %v", label, tabled)
					}
					batch, err := s.AlgorithmN(inputs)
					if err != nil {
						t.Fatal(err)
					}
					// Two length groups: the 203-sample query has a pass
					// wherever the reference walked one for it.
					if want := ref[0].passes + ref[2].passes; batch.SetPasses != want {
						t.Fatalf("%s: batch made %d set passes, reference %d", label, batch.SetPasses, want)
					}
					for i, input := range inputs {
						assertBitIdentical(t, fmt.Sprintf("%s/query %d", label, i), ref[i].Result, batch.Results[i])
						solo, err := s.AlgorithmN([][]float64{input})
						if err != nil {
							t.Fatal(err)
						}
						if solo.SetPasses != ref[i].passes {
							t.Fatalf("%s/query %d alone: %d set passes, reference %d", label, i, solo.SetPasses, ref[i].passes)
						}
						assertBitIdentical(t, fmt.Sprintf("%s/query %d alone", label, i), ref[i].Result, solo.Results[0])
						candidates += ref[i].Candidates
					}
					if floor != 0 {
						continue
					}
					// The baseline is the same walk at unit advance.
					ref = refSearch(t, store, params, floatWindows(inputs), true)
					dense, err := s.ExhaustiveN(inputs)
					if err != nil {
						t.Fatal(err)
					}
					if dense.SetPasses != batch.SetPasses {
						t.Fatalf("%s: exhaustive batch made %d set passes, the skip walk %d", label, dense.SetPasses, batch.SetPasses)
					}
					for i, input := range inputs {
						assertBitIdentical(t, fmt.Sprintf("%s/exhaustive query %d", label, i), ref[i].Result, dense.Results[i])
						solo, err := s.Exhaustive(input)
						if err != nil {
							t.Fatal(err)
						}
						assertBitIdentical(t, fmt.Sprintf("%s/exhaustive query %d alone", label, i), ref[i].Result, solo)
					}
				}
			}
		}
	}
	if candidates < 1000 {
		t.Fatalf("only %d candidates over the whole sweep — the comparison is near-vacuous", candidates)
	}
}

// aloneAndInLanes scans inputs twice — one worker, so eight sets are in
// flight in lockstep, and one worker per set, so every set is walked
// alone, seven lanes masked — and requires the two to agree with ==
// on every match field, every counter and SetPasses: lanes exchange
// nothing but the query. It returns the one-worker batch.
func aloneAndInLanes(t *testing.T, label string, store *mdb.Store, params Params, inputs [][]float64) *BatchResult {
	t.Helper()
	params.Workers = 1
	lanesRes, err := NewSearcher(store, params).AlgorithmN(inputs)
	if err != nil {
		t.Fatal(err)
	}
	params.Workers = store.NumSets()
	alone, err := NewSearcher(store, params).AlgorithmN(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if lanesRes.SetPasses != alone.SetPasses || lanesRes.Evaluated != alone.Evaluated {
		t.Fatalf("%s: %d passes, %d evaluations in lanes; %d, %d one set at a time",
			label, lanesRes.SetPasses, lanesRes.Evaluated, alone.SetPasses, alone.Evaluated)
	}
	for i := range inputs {
		assertBitIdentical(t, fmt.Sprintf("%s/query %d", label, i), alone.Results[i], lanesRes.Results[i])
	}
	return lanesRes
}

// TestLaneWalkMixedTiers: one shard holding warm and cold records at
// once — every one read through its counts, wherever they reside —
// answers exactly as each set walked alone does and exactly as the naive
// reference over the counts does.
func TestLaneWalkMixedTiers(t *testing.T) {
	f := newFixture(t, 1)
	store := coldCopy(t, f.store)
	ids := store.RecordIDs()
	if rec, _ := store.Record(ids[0]); rec.Tier() != mdb.TierCold {
		t.Skipf("mmap unavailable; store loaded %v", rec.Tier())
	}
	// A scan access copies a record to the heap while the budget has
	// headroom: two records in three get one. Budget 0 then freezes the
	// mix — no promotion, no demotion.
	store.SetTierBudget(1 << 30)
	tiers := map[mdb.Tier]int{}
	for i, id := range ids {
		rec, _ := store.Record(id)
		if i%3 != 2 {
			rec.Touch()
		}
		tiers[rec.Tier()]++
	}
	store.SetTierBudget(0)
	if tiers[mdb.TierWarm] == 0 || tiers[mdb.TierCold] == 0 {
		t.Fatalf("no tier mix to scan: %v", tiers)
	}
	long := f.input(synth.Seizure, 0)
	inputs := [][]float64{f.input(synth.Normal, 0), long, long[:128]}
	for _, slice := range []bool{false, true} {
		params := Params{PaperSliceScan: slice, Delta: 0.3}
		label := fmt.Sprintf("mixed tiers/slice=%v", slice)
		got := aloneAndInLanes(t, label, store, params, inputs)
		ref := refSearch(t, store, params, floatWindows(inputs), false)
		matched := 0
		for i := range inputs {
			solo, err := NewSearcher(store, params).Algorithm1(inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s/query %d alone", label, i), got.Results[i], solo)
			assertBitIdentical(t, fmt.Sprintf("%s/query %d vs reference", label, i), ref[i].Result, got.Results[i])
			matched += len(ref[i].Matches)
		}
		if matched < len(inputs) {
			t.Fatalf("%s: only %d reference matches", label, matched)
		}
	}
	after := map[mdb.Tier]int{}
	for _, id := range ids {
		rec, _ := store.Record(id)
		after[rec.Tier()]++
	}
	if after[mdb.TierWarm] != tiers[mdb.TierWarm] || after[mdb.TierCold] != tiers[mdb.TierCold] {
		t.Fatalf("scans moved records: %v before, %v after", tiers, after)
	}
}

// TestLaneWalkNonFiniteSamples: recordings inserted with a NaN sample in
// one and ±Inf samples in another. What a store keeps is counts, so
// nothing non-finite survives the insert — an infinite peak pins the
// scale and drives every sample of that recording to a rail — and the
// walk over such records, held in lanes beside clean ones, is the
// reference's: every ω finite, no lane's trajectory poisoned.
func TestLaneWalkNonFiniteSamples(t *testing.T) {
	g := synth.NewGenerator(synth.Config{Seed: 9, ArchetypesPerClass: 1})
	store := mdb.NewStore()
	for i, bad := range [][]float64{nil, {math.NaN()}, nil, {math.Inf(1), math.Inf(-1)}, nil} {
		samples := g.Instance(synth.Normal, 0, synth.InstanceOpts{OffsetSamples: i * 700, DurSeconds: 13}).Samples
		for j, v := range bad {
			samples[1400+900*j] = v
		}
		if _, err := store.Insert(&mdb.Record{ID: fmt.Sprint("r", i), Samples: samples}, 1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	railed, _ := store.Record("r3")
	if c := railed.Quant().Counts; c[1400] != math.MaxInt16 || c[2300] != math.MinInt16 {
		t.Fatalf("±Inf samples are stored as counts %d and %d, want the rails", c[1400], c[2300])
	}
	f := newFixture(t, 1)
	inputs := [][]float64{f.input(synth.Normal, 0), f.input(synth.Normal, 1)[:100]}
	params := Params{Delta: 0.3}
	got := aloneAndInLanes(t, "non-finite", store, params, inputs)
	ref := refSearch(t, store, params, floatWindows(inputs), false)
	for i := range inputs {
		assertBitIdentical(t, fmt.Sprintf("non-finite/query %d vs reference", i), ref[i].Result, got.Results[i])
		for _, m := range got.Results[i].Matches {
			if math.IsNaN(m.Omega) || math.IsInf(m.Omega, 0) {
				t.Fatalf("query %d: match %+v has a non-finite ω", i, m)
			}
		}
	}
	// A non-finite sample in the QUERY has no counts: the window is
	// flat and matches nothing.
	bad := append([]float64(nil), inputs[0]...)
	bad[17] = math.NaN()
	if res, err := NewSearcher(store, params).Algorithm1(bad); err != nil || len(res.Matches) != 0 || res.Evaluated != 0 {
		t.Fatalf("a window with a NaN sample: %+v, %v", res, err)
	}
}

// TestWalkStartsOnCacheLine: the step kernel loads and stores 32-byte
// fields of its groups, laid out so that none straddles two cache lines
// when the walk starts on one. Where a pooled scratch puts its walk is
// the allocator's doing, so this is a pin, not a guarantee: if it fails
// after a toolchain change, move walkScratch.walk — a misplaced walk
// costs a scan some of its speed, nothing else.
func TestWalkStartsOnCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("laid out for 64-bit platforms")
	}
	var held []*walkScratch
	for i := 0; i < 4; i++ {
		scr := scratchPool.New().(*walkScratch)
		if at := uintptr(unsafe.Pointer(&scr.walk)) % 64; at != 0 {
			t.Fatalf("scratch %d: the walk starts %d bytes into a cache line", i, at)
		}
		held = append(held, scr)
	}
	runtime.KeepAlive(held)
}

// TestAlgorithm1WarmAllocs pins the per-scan allocation count of a warm
// single-query skip scan at what the single-cursor walk cost before the
// lanes (28 on one shard: the batch bookkeeping, the result, the top-K,
// the shard goroutine): eight lanes of segment buffers, the refills and
// the kernel walk all live in the pooled scratch. The best of several
// runs is taken because a collection between runs empties the pool and
// the race detector makes it drop a quarter of its Puts; either costs
// that run the scratch's own buffers again.
func TestAlgorithm1WarmAllocs(t *testing.T) {
	f := newFixture(t, 1)
	input := f.input(synth.Normal, 0)
	for name, store := range map[string]*mdb.Store{"built": f.store, "loaded": quantizedCopy(t, f.store)} {
		s := NewSearcher(store, Params{Workers: 1})
		best := math.Inf(1)
		for try := 0; try < 10; try++ {
			best = math.Min(best, testing.AllocsPerRun(1, func() {
				if _, err := s.Algorithm1(input); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if best > 28 {
			t.Fatalf("%s: a warm Algorithm1 allocates %.0f times, 28 before the lanes", name, best)
		}
	}
}
