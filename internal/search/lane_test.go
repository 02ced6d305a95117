package search

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// laneStore builds a quantized store with the given number of
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

// TestLaneWalkMixedTiers: one shard holding hot, warm and cold records
// at once — every one read through its counts, whatever else is
// resident — answers exactly as each set walked alone does and exactly
// as the naive reference over the counts does.
func TestLaneWalkMixedTiers(t *testing.T) {
	f := newFixture(t, 1)
	store := coldCopy(t, f.store)
	ids := store.RecordIDs()
	if rec, _ := store.Record(ids[0]); rec.Tier() != mdb.TierCold {
		t.Skipf("mmap unavailable; store loaded %v", rec.Tier())
	}
	// Scan accesses climb a record one tier at a time while the budget
	// has headroom: two for every third record, one for the next.
	// Budget 0 then freezes the mix — no promotion, no demotion.
	store.SetTierBudget(1 << 30)
	tiers := map[mdb.Tier]int{}
	for i, id := range ids {
		rec, _ := store.Record(id)
		for touches := 2 - i%3; touches > 0; touches-- {
			rec.Touch()
		}
		tiers[rec.Tier()]++
	}
	store.SetTierBudget(0)
	if tiers[mdb.TierHot] == 0 || tiers[mdb.TierWarm] == 0 || tiers[mdb.TierCold] == 0 {
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
	for _, id := range ids {
		if rec, _ := store.Record(id); tiers[rec.Tier()] == 0 {
			t.Fatalf("scan moved record %q to %v", id, rec.Tier())
		}
	}
}

// TestLaneWalkMixedKinds: one store holding float-canonical records and
// records that have counts, interleaved — every shard is walked once per
// kind, each query in both forms, and each set exactly once: SetPasses
// and Evaluated are the reference's, sets of records with counts answer
// with the reference's bits, float-canonical sets within the float
// contract, whether the windows come as floats or as uploaded counts,
// under Algorithm 1 and under the exhaustive baseline, on one shard and
// on three.
func TestLaneWalkMixedKinds(t *testing.T) {
	f := newFixture(t, 1)
	store := mdb.NewStore()
	quantized := map[int]bool{}
	for i, id := range f.store.RecordIDs() {
		rec, _ := f.store.Record(id)
		before := store.NumSets()
		if i%2 == 0 {
			counts, scale := proto.Quantize(rec.Samples)
			if _, err := store.InsertQuantized(&mdb.Record{ID: id}, counts, scale, 1000, nil); err != nil {
				t.Fatal(err)
			}
		} else if _, err := store.Insert(&mdb.Record{ID: id, Samples: rec.Samples}, 1000, nil); err != nil {
			t.Fatal(err)
		}
		for set := before; set < store.NumSets(); set++ {
			quantized[set] = i%2 == 0
		}
	}
	if snap := store.Snapshot(); snap.NumQuantized() == 0 || snap.NumQuantized() == snap.NumRecords() {
		t.Fatalf("%d of %d records have counts: no mix", snap.NumQuantized(), snap.NumRecords())
	}
	first, long := f.input(synth.Normal, 0), f.input(synth.Seizure, 0)
	inputs := [][]float64{first, long, long[:128], first}
	exact, within := 0, 0
	for form, ws := range map[string][]window{"float": floatWindows(inputs), "counts": uploads(inputs)} {
		for _, exhaustive := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				params := Params{Delta: 0.3, Workers: workers}
				label := fmt.Sprintf("%s/exhaustive=%v/%d workers", form, exhaustive, workers)
				ref := refSearch(t, store, params, ws, exhaustive)
				got, err := NewSearcher(store, params).runBatch(ws, exhaustive)
				if err != nil {
					t.Fatal(err)
				}
				// inputs[3] repeats inputs[0]: one scan serves both.
				if got.Unique != 3 || got.Results[3] != got.Results[0] || got.SetPasses != ref[0].passes+ref[2].passes {
					t.Fatalf("%s: %d unique queries, %d set passes; the reference walks %d", label, got.Unique, got.SetPasses, ref[0].passes+ref[2].passes)
				}
				for i := range ws {
					solo, err := NewSearcher(store, params).run(ws[i], exhaustive)
					if err != nil {
						t.Fatal(err)
					}
					for _, res := range []*Result{got.Results[i], solo} {
						assertSelectionEquivalent(t, label, ref[i].Result, res)
						if exhaustive {
							assertCountersEqual(t, label, ref[i].Result, res)
						}
						for k, m := range res.Matches {
							if !quantized[m.SetID] {
								within++
							} else if exact++; m != ref[i].Matches[k] {
								t.Fatalf("%s/query %d: match %d over counts is %+v, reference %+v", label, i, k, m, ref[i].Matches[k])
							}
						}
					}
				}
			}
		}
	}
	if exact < 50 || within < 50 {
		t.Fatalf("%d matches over counts and %d over floats — one kind is near-unsearched", exact, within)
	}
}

// branchWalk walks one float pass from its head as the single-cursor loop
// spelled it before the lanes and before the step kernel: one offset at
// a time, the envelope's running maximum and the skip rule's floor as
// comparisons and branches, the decay by DecayPow. It returns how many
// visited windows had a NaN norm.
func branchWalk(s *Searcher, g *segment, zq []float64, acc *queryAccum) (poisoned int) {
	p := &s.params
	found, bestOmega, bestBeta, env := false, 0.0, 0, 0.0
	for beta := 0; beta <= g.maxOff; {
		lo, hi := g.sums[beta], g.sums[beta+g.n]
		sum, sumSq := hi[0]-lo[0], hi[1]-lo[1]
		v := sumSq - sum*sum/float64(g.n)
		if v < 0 {
			v = 0
		}
		den := math.Sqrt(v)
		if math.IsNaN(den) {
			poisoned++
		}
		omega := 0.0
		if den >= 1e-12 {
			omega = kernel.Dot(zq, g.x[beta:beta+g.n]) / den
		}
		acc.evaluated++
		if omega > p.Delta {
			acc.candidates++
			if !found || omega > bestOmega {
				bestOmega, bestBeta, found = omega, beta, true
			}
		}
		if a := math.Abs(omega); a > env {
			env = a
		}
		floored := env
		if floored < p.OmegaFloor {
			floored = p.OmegaFloor
		}
		adv := int(s.rule.SkipNum/floored + 0.5)
		if adv < 1 {
			adv = 1
		}
		beta += adv
		env *= kernel.DecayPow(p.EnvDecay, adv)
	}
	if found {
		acc.top.Push(Match{SetID: g.setID, Omega: bestOmega, Beta: bestBeta})
	}
	return poisoned
}

// TestLaneWalkNonFiniteSamples: a float store carrying a NaN sample in
// one record and ±Inf samples in another. The poisoned prefix sums make
// every window norm at or after the bad sample NaN, which correlates as
// 0 — the trajectory the branch-spelled walk takes — and the step kernel
// must take it too, holding the poisoned sets beside clean ones.
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
	f := newFixture(t, 1)
	inputs := [][]float64{f.input(synth.Normal, 0), f.input(synth.Normal, 1)[:100]}
	params := Params{Delta: 0.3}
	got := aloneAndInLanes(t, "non-finite", store, params, inputs)

	s := NewSearcher(store, params)
	snap := store.Snapshot()
	for i, input := range inputs {
		zq := make([]float64, len(input))
		if dsp.ZNormalizeTo(zq, input) == 0 {
			t.Fatalf("input %d is flat", i)
		}
		acc := queryAccum{top: NewTopK(s.params.TopK)}
		poisoned, scr := 0, &walkScratch{}
		for _, set := range snap.Sets() {
			rec, _ := snap.Record(set.RecordID)
			l := lane{set: set, recLen: rec.Len(), stats: rec.Stats()}
			if s.open(scr, &l, len(zq)) {
				poisoned += branchWalk(s, &l.seg, zq, &acc)
			}
		}
		if poisoned == 0 {
			t.Fatalf("query %d: no visited window has a poisoned norm", i)
		}
		want := &Result{Matches: acc.top.SortedDesc(), Evaluated: acc.evaluated, Candidates: acc.candidates}
		assertBitIdentical(t, fmt.Sprintf("non-finite/query %d vs branch walk", i), want, got.Results[i])
	}
}

// TestWalkStartsOnCacheLine: the step kernel loads and stores 32-byte
// fields of its groups, laid out so that none straddles two cache lines
// when the walk starts on one. Where a pooled scratch puts its walk is
// the allocator's doing, so this is a pin, not a guarantee: if it fails
// after a toolchain change, move walkScratch.walk — a misplaced walk
// costs a float scan about a tenth of its speed, nothing else.
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
	for name, store := range map[string]*mdb.Store{"hot": f.store, "warm": quantizedCopy(t, f.store)} {
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
