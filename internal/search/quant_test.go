package search

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/synth"
)

// quantizedCopy round-trips a store through the columnar v2 format and
// loads it eagerly: a warm, heap-resident store holding the same counts.
func quantizedCopy(t testing.TB, store *mdb.Store) *mdb.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "q.col")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	qs, err := mdb.LoadColumnar(f)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// eachResidentForm runs fn over the store as it was built and over the
// three resident forms of its columnar snapshot — a warm heap load, a
// cold memory map, and a map with every other record copied to the heap
// under a byte budget that is exactly what those copies cost — and fails
// if the scans in fn moved any record off the tier it started on or
// caused a single promotion or demotion: they read the counts where they
// were.
func eachResidentForm(t *testing.T, store *mdb.Store, fn func(name string, qs *mdb.Store)) {
	t.Helper()
	mixed := coldCopy(t, store)
	mixed.SetTierBudget(1 << 40)
	for i, id := range mixed.RecordIDs() {
		if i%2 == 0 {
			rec, _ := mixed.Record(id)
			rec.Touch()
		}
	}
	// Tight: no headroom for a scan access to promote into, nothing over
	// it to demote.
	mixed.SetTierBudget(max(mixed.TierStats().WarmBytes, 1))
	for _, st := range []struct {
		name  string
		store *mdb.Store
		tier  mdb.Tier // of the first record
	}{{"built", store, mdb.TierWarm}, {"warm", quantizedCopy(t, store), mdb.TierWarm}, {"cold", coldCopy(t, store), mdb.TierCold}, {"mixed", mixed, mdb.TierWarm}} {
		ids := st.store.RecordIDs()
		tiers, mix := make([]mdb.Tier, len(ids)), map[mdb.Tier]int{}
		for i, id := range ids {
			rec, _ := st.store.Record(id)
			tiers[i] = rec.Tier()
			mix[tiers[i]]++
		}
		if tiers[0] != st.tier || st.name == "mixed" && len(mix) != 2 {
			if st.name == "cold" || st.name == "mixed" {
				t.Logf("mmap unavailable; %s store loaded %v", st.name, mix)
				continue
			}
			t.Fatalf("%s store starts %v", st.name, mix)
		}
		before := st.store.TierStats()
		fn(st.name, st.store)
		for i, id := range ids {
			if rec, _ := st.store.Record(id); rec.Tier() != tiers[i] {
				t.Fatalf("%s scan moved record %q from %v to %v", st.name, id, tiers[i], rec.Tier())
			}
		}
		if after := st.store.TierStats(); after.Promotions != before.Promotions || after.Demotions != before.Demotions {
			t.Fatalf("%s scan caused %d promotions and %d demotions", st.name, after.Promotions-before.Promotions, after.Demotions-before.Demotions)
		}
	}
}

// goldenQuantCompare runs the equivalence battery over the resident
// forms of one store's snapshot: whichever holds the counts, the walk
// must reproduce the naive Pearson over them with == (ω bits, offsets,
// counters), skip and exhaustive alike.
func goldenQuantCompare(t *testing.T, store *mdb.Store, inputs [][]float64) {
	t.Helper()
	eachResidentForm(t, store, func(name string, qs *mdb.Store) {
		if name != "built" { // TestGoldenScalarVsFFT*'s
			goldenCompareStore(t, name, qs, inputs)
		}
	})
}

// TestGoldenQuantVsScalarSynthetic: the quantized contract over the
// standard synthetic fixture, including a mixed-length batch.
func TestGoldenQuantVsScalarSynthetic(t *testing.T) {
	f := newFixture(t, 2)
	goldenQuantCompare(t, f.store, syntheticInputs(f))
}

// TestGoldenQuantVsScalarDegenerate: constant stored regions quantize
// to constant counts, the integer variance cancels exactly, and the
// correlation there is exactly 0.
func TestGoldenQuantVsScalarDegenerate(t *testing.T) {
	store, inputs := plateauStore(t)
	goldenQuantCompare(t, store, inputs)
}

// TestGoldenQuantVsScalarEDFStore: the contract over an EDF-derived
// store — data that already survived one 16-bit quantization before
// Build applies its own.
func TestGoldenQuantVsScalarEDFStore(t *testing.T) {
	store, inputs := edfStore(t)
	goldenQuantCompare(t, store, inputs)
}

// TestQuantOmegaWithinDocumentedTolerance: against the float samples the
// records were quantized FROM, a match's ω differs only by the payload
// quantization: Pearson over the unquantized stretch of the processed
// recording sits within the documented tolerance of the reported ω, for
// every reported match.
func TestQuantOmegaWithinDocumentedTolerance(t *testing.T) {
	f := newFixture(t, 2)
	input := f.input(synth.Seizure, 1)
	got, err := NewSearcher(f.store, Params{}).Exhaustive(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) == 0 {
		t.Fatal("fixture produced no matches")
	}
	processed := map[string][]float64{}
	for _, raw := range f.recs {
		rec, err := mdb.Preprocess(raw, mdb.DefaultBuildConfig(), f.fir)
		if err != nil {
			t.Fatal(err)
		}
		processed[rec.ID] = rec.Samples
	}
	sets := f.store.Sets()
	for _, m := range got.Matches {
		set := sets[m.SetID]
		at := set.Start + m.Beta
		// Payload quantization perturbs each stored sample by ≤ step/2
		// (and the query's likewise); 2e-3 is comfortably above the
		// resulting ω error for 256-sample windows (see DESIGN.md §14)
		// and far below match-significant differences.
		if float := dsp.Pearson(input, processed[set.RecordID][at:at+len(input)]); math.Abs(float-m.Omega) > 2e-3 {
			t.Fatalf("set %d β %d: ω over counts %g, over the float samples %g", m.SetID, m.Beta, m.Omega, float)
		}
	}
}

// TestBeyondRAMQuantSearch: over a memory-mapped columnar store whose
// file exceeds the promotion budget, scan accesses copy what fits into
// the heap and leave the rest mapped. The scan reads every record's
// counts wherever it finds them, so it must answer exactly — ==,
// counters included — like the naive reference over a fully resident
// load of the same snapshot.
func TestBeyondRAMQuantSearch(t *testing.T) {
	f := newFixture(t, 2)
	path := filepath.Join(t.TempDir(), "big.col")
	if err := f.store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	cold, err := mdb.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := cold.Record(cold.RecordIDs()[0]); rec.Tier() != mdb.TierCold {
		t.Skipf("mmap unavailable; store loaded %v", rec.Tier())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(100 << 10)
	if st.Size() <= budget {
		t.Fatalf("fixture snapshot (%d bytes) does not exceed the %d-byte budget", st.Size(), budget)
	}
	cold.SetTierBudget(budget)

	eager, err := mdb.LoadColumnar(mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]float64{f.input(synth.Normal, 0), f.input(synth.Seizure, 1)}
	s := NewSearcher(cold, Params{})
	for _, exhaustive := range []bool{true, false} {
		ref := refSearch(t, eager, Params{}, floatWindows(inputs), exhaustive)
		got, err := s.runBatch(floatWindows(inputs), exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			assertBitIdentical(t, "beyond-ram", ref[i].Result, got.Results[i])
		}
	}
	// The scans' own accesses are what promoted: into the budget's
	// headroom, never past it, so nothing was demoted and a tier mix is
	// what the later scans read.
	tiers := map[mdb.Tier]int{}
	for _, id := range cold.RecordIDs() {
		rec, _ := cold.Record(id)
		tiers[rec.Tier()]++
	}
	ts := cold.TierStats()
	if tiers[mdb.TierWarm] == 0 || tiers[mdb.TierCold] == 0 || ts.Promotions != int64(tiers[mdb.TierWarm]) || ts.Demotions != 0 || ts.WarmBytes > budget || ts.HotBytes != 0 {
		t.Fatalf("beyond-RAM scans left tiers %v, stats %+v under a %d-byte budget", tiers, ts, budget)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
