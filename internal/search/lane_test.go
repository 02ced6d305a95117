package search

import (
	"fmt"
	"math"
	"testing"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
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
// SetPasses, over stores with 1, 2, 3, 4, 5 and 9 (paper bound) or one
// more (full coverage) searchable sets — fewer sets than lanes, an
// exact multiple, and a remainder that leaves through the drain — with
// unsearchable sets between two long records, with every candidate
// offset retained (AllOffsets) and only the best per set, for a lone
// query (lanes refilled from the shard) and for a batch of two length
// groups (resident runs walked query by query).
func TestLaneWalkSetCounts(t *testing.T) {
	f := newFixture(t, 1)
	long := f.input(synth.Normal, 0)
	inputs := [][]float64{long, f.input(synth.Seizure, 1), long[:203]}
	candidates := 0
	for _, sets := range []int{1, 2, 3, 4, 5, 9} {
		store := laneStore(t, f, sets)
		for _, slice := range []bool{false, true} {
			for _, all := range []bool{false, true} {
				params := Params{PaperSliceScan: slice, AllOffsets: all, Delta: 0.3, Workers: 1}
				label := fmt.Sprintf("%d sets/slice=%v/all=%v", sets, slice, all)
				ref := refSearch(t, store, params, inputs, false)
				if want := map[bool]int{true: sets, false: sets + 1}[slice]; ref[0].ProfileSets != want {
					t.Fatalf("%s: the reference walks %d sets for a one-second query, want %d", label, ref[0].ProfileSets, want)
				}
				s := NewSearcher(store, params)
				batch, err := s.AlgorithmN(inputs)
				if err != nil {
					t.Fatal(err)
				}
				// Two length groups: the 203-sample query has a pass
				// wherever the reference walked one for it.
				if want := ref[0].ProfileSets + ref[2].ProfileSets; batch.SetPasses != want {
					t.Fatalf("%s: batch made %d set passes, reference %d", label, batch.SetPasses, want)
				}
				for i, input := range inputs {
					assertBitIdentical(t, fmt.Sprintf("%s/query %d", label, i), ref[i], batch.Results[i])
					solo, err := s.AlgorithmN([][]float64{input})
					if err != nil {
						t.Fatal(err)
					}
					if solo.SetPasses != ref[i].ProfileSets {
						t.Fatalf("%s/query %d alone: %d set passes, reference %d", label, i, solo.SetPasses, ref[i].ProfileSets)
					}
					assertBitIdentical(t, fmt.Sprintf("%s/query %d alone", label, i), ref[i], solo.Results[0])
					candidates += ref[i].Candidates
				}
			}
		}
	}
	if candidates < 1000 {
		t.Fatalf("only %d candidates over the whole sweep — the comparison is near-vacuous", candidates)
	}
}

// aloneAndInLanes scans inputs twice — one worker, so four sets are in
// flight in lockstep, and one worker per set, so every set is walked
// alone through the scalar drain — and requires the two to agree with ==
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
// at once — lanes reading float64 signals beside lanes reading
// dequantized scratch, in one Dot4 call — answers exactly as each set
// walked alone does, and selects what the naive reference selects.
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
		ref := refSearch(t, store, params, inputs, false)
		matched := 0
		for i := range inputs {
			solo, err := NewSearcher(store, params).Algorithm1(inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s/query %d alone", label, i), got.Results[i], solo)
			// The reference correlates a hot record's counts where the
			// scan reads its dequantized floats: same selection, ω
			// within the float contract.
			assertSelectionEquivalent(t, label, ref[i], got.Results[i])
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

// branchVisit is a visit as the single-cursor loop spelled it before
// the lanes: the envelope's running maximum and the skip rule's floor
// are comparisons and branches. It is the reference visit's selects are
// pinned to.
func branchVisit(s *Searcher, l *lane, acc *queryAccum, dot, den float64) bool {
	p := &s.params
	omega := 0.0
	if den >= 1e-12 {
		omega = l.seg.scale * dot / den
	}
	acc.evaluated++
	if omega > p.Delta {
		acc.candidates++
		if !l.found || omega > l.bestOmega {
			l.bestOmega, l.bestBeta, l.found = omega, l.beta, true
		}
	}
	if a := math.Abs(omega); a > l.env {
		l.env = a
	}
	env := l.env
	if env < p.OmegaFloor {
		env = p.OmegaFloor
	}
	adv := int(s.skipNum/env + 0.5)
	if adv < 1 {
		adv = 1
	}
	l.beta += adv
	l.env *= decayPow(p.EnvDecay, adv)
	return l.beta <= l.seg.maxOff
}

// TestVisitSelectsMatchBranches: visit's max() selects leave a lane
// exactly where the comparisons they replaced would — for ordinary ω on
// either side of the envelope and of the floor, for ω = ±0, and for the
// non-finite ω a corrupt sample could produce: +Inf and −Inf saturate the
// envelope, NaN leaves it unchanged.
func TestVisitSelectsMatchBranches(t *testing.T) {
	for _, p := range []Params{{}, {OmegaFloor: 0.3}, {OmegaFloor: 1e-4}} {
		s := NewSearcher(nil, p)
		dots := []float64{0, math.Copysign(0, -1), 1e-9, 0.01, 0.049, 0.05, 0.051, 0.3, 0.79, 0.81, 1, -0.02, -0.6, -1,
			math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
		envs := []float64{0, 1e-12, 0.01, 0.05, 0.2, 0.6, 1, math.Inf(1)}
		for _, dot := range dots {
			for _, env := range envs {
				for _, den := range []float64{1, 0, 1e-13, math.NaN(), math.Inf(1)} {
					got := lane{seg: segment{scale: 0.5, maxOff: 40}, beta: 30, env: env, found: true, bestOmega: 0.85}
					want := got
					var gotAcc, wantAcc queryAccum
					gotOK, wantOK := s.visit(&got, &gotAcc, dot, den), branchVisit(s, &want, &wantAcc, dot, den)
					same := gotOK == wantOK && got.beta == want.beta && got.found == want.found && got.bestBeta == want.bestBeta &&
						math.Float64bits(got.env) == math.Float64bits(want.env) &&
						math.Float64bits(got.bestOmega) == math.Float64bits(want.bestOmega) &&
						gotAcc == wantAcc
					if !same {
						t.Fatalf("%+v dot=%g den=%g env=%g: visit left β=%d env=%x best=(%g, %d) %+v, branches β=%d env=%x best=(%g, %d) %+v",
							p, dot, den, env, got.beta, math.Float64bits(got.env), got.bestOmega, got.bestBeta, gotAcc,
							want.beta, math.Float64bits(want.env), want.bestOmega, want.bestBeta, wantAcc)
					}
				}
			}
		}
	}
}

// TestLaneWalkNonFiniteSamples: a float store carrying a NaN sample in
// one record and ±Inf samples in another. The poisoned prefix sums make
// every window norm at or after the bad sample NaN, which correlates as
// 0 — the trajectory the branch-spelled walk takes — and the lanes must
// take it too, holding the poisoned sets beside clean ones.
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
			if !s.open(scr, &l, len(zq)) {
				continue
			}
			l.start()
			for {
				den := l.den()
				if math.IsNaN(den) {
					poisoned++
				}
				if !branchVisit(s, &l, &acc, kernel.Dot(zq, l.window()), den) {
					break
				}
			}
			s.finish(&l, &acc)
		}
		if poisoned == 0 {
			t.Fatalf("query %d: no visited window has a poisoned norm", i)
		}
		want := &Result{Matches: acc.top.SortedDesc(), Evaluated: acc.evaluated, Candidates: acc.candidates}
		assertBitIdentical(t, fmt.Sprintf("non-finite/query %d vs branch walk", i), want, got.Results[i])
	}
}

// TestAlgorithm1WarmAllocs pins the per-scan allocation count of a warm
// single-query skip scan at what the single-cursor walk cost before the
// lanes (28 on one shard: the batch bookkeeping, the result, the top-K,
// the shard goroutine): four lanes of segment buffers, the refills and
// the Dot4 results all live in the pooled scratch. The best of several
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
