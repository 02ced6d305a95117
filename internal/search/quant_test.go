package search

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"emap/internal/mdb"
	"emap/internal/synth"
)

// quantizedCopy round-trips a store through the columnar v2 format and
// loads it eagerly: the result is a warm, heap-resident quantized store
// holding the int16 counts the float records quantize to.
func quantizedCopy(t testing.TB, store *mdb.Store) *mdb.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "q.col")
	if err := store.Snapshot().SaveFileFormat(path, mdb.FormatColumnar); err != nil {
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

// eachQuantizedForm runs fn over the three resident forms of a
// float-built store's quantization — a warm heap load, a cold memory map
// of its columnar snapshot, and a warm load with every other record
// promoted hot under a byte budget that is exactly what those promotions
// cost — and fails if the scans in fn moved any record off the tier it
// started on or caused a single promotion or demotion: they scanned the
// counts in place and asked for no float copy, a hot record's included.
func eachQuantizedForm(t *testing.T, store *mdb.Store, fn func(name string, qs *mdb.Store)) {
	t.Helper()
	hot := quantizedCopy(t, store)
	var budget int64
	for i, id := range hot.RecordIDs() {
		if i%2 == 0 {
			rec, _ := hot.Record(id)
			rec.Float()
			budget += int64(rec.Len())*24 + 32 // mdb's charge for a hot copy
		}
	}
	// Tight: no headroom for a scan access to promote into, nothing over
	// it to demote.
	hot.SetTierBudget(budget)
	for _, st := range []struct {
		name  string
		store *mdb.Store
		tier  mdb.Tier
	}{{"warm", quantizedCopy(t, store), mdb.TierWarm}, {"cold", coldCopy(t, store), mdb.TierCold}, {"hot", hot, mdb.TierHot}} {
		ids := st.store.RecordIDs()
		if rec, _ := st.store.Record(ids[0]); rec.Tier() != st.tier {
			if st.tier == mdb.TierCold {
				t.Logf("mmap unavailable; %s store loaded %v", st.name, rec.Tier())
				continue
			}
			t.Fatalf("%s store starts %v", st.name, rec.Tier())
		}
		tiers := make([]mdb.Tier, len(ids))
		for i, id := range ids {
			rec, _ := st.store.Record(id)
			tiers[i] = rec.Tier()
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

// goldenQuantCompare runs the equivalence battery over the quantized
// forms of one float-built store. The reference is the naive Pearson
// over the SAME int16 counts, and the walk over counts must reproduce it
// with == (ω bits, offsets, counters), skip and exhaustive alike.
func goldenQuantCompare(t *testing.T, store *mdb.Store, inputs [][]float64) {
	t.Helper()
	eachQuantizedForm(t, store, func(name string, qs *mdb.Store) {
		goldenCompareStore(t, name, qs, inputs, true)
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
// the columnar conversion applies its own.
func TestGoldenQuantVsScalarEDFStore(t *testing.T) {
	store, inputs := edfStore(t)
	goldenQuantCompare(t, store, inputs)
}

// TestQuantOmegaWithinDocumentedTolerance: against the ORIGINAL float
// store (before quantization), the quantized store's scores differ
// only by the payload quantization — the top match must stay the same
// and its ω must sit within the documented tolerance.
func TestQuantOmegaWithinDocumentedTolerance(t *testing.T) {
	f := newFixture(t, 2)
	input := f.input(synth.Seizure, 1)
	ref, err := NewSearcher(f.store, Params{}).Exhaustive(input)
	if err != nil {
		t.Fatal(err)
	}
	qs := quantizedCopy(t, f.store)
	got, err := NewSearcher(qs, Params{}).Exhaustive(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Matches) == 0 || len(got.Matches) == 0 {
		t.Fatal("fixture produced no matches")
	}
	r, g := ref.Matches[0], got.Matches[0]
	if r.SetID != g.SetID || r.Beta != g.Beta {
		t.Fatalf("top match moved under quantization: (set %d, β %d) vs (set %d, β %d)",
			g.SetID, g.Beta, r.SetID, r.Beta)
	}
	// Payload quantization perturbs each stored sample by ≤ step/2;
	// 2e-3 is comfortably above the resulting ω error for 256-sample
	// windows (see DESIGN.md §14) and far below match-significant
	// differences.
	if d := math.Abs(r.Omega - g.Omega); d > 2e-3 {
		t.Fatalf("top ω moved by %g under quantization (float %g, quant %g)", d, r.Omega, g.Omega)
	}
}

// TestBeyondRAMQuantSearch: over a memory-mapped columnar store whose
// file exceeds the promotion budget, float reads page records through
// the hot tier (promotions AND demotions) and leave them on mixed
// tiers. The scan reads every record's counts whatever tier it
// observes, so it must answer exactly — ==, counters included — like
// the naive reference over a fully resident load of the same snapshot.
func TestBeyondRAMQuantSearch(t *testing.T) {
	f := newFixture(t, 2)
	path := filepath.Join(t.TempDir(), "big.col")
	if err := f.store.Snapshot().SaveFileFormat(path, mdb.FormatColumnar); err != nil {
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
	budget := int64(200 << 10)
	if st.Size() <= budget {
		t.Fatalf("fixture snapshot (%d bytes) does not exceed the %d-byte budget", st.Size(), budget)
	}
	cold.SetTierBudget(budget)
	tiers := map[mdb.Tier]int{}
	for _, id := range cold.RecordIDs() {
		rec, _ := cold.Record(id)
		rec.Float()
	}
	for _, id := range cold.RecordIDs() {
		rec, _ := cold.Record(id)
		tiers[rec.Tier()]++
	}
	if tiers[mdb.TierHot] == 0 || tiers[mdb.TierHot] == len(cold.RecordIDs()) {
		t.Fatalf("float reads left no tier mix to scan: %v", tiers)
	}
	if ts := cold.TierStats(); ts.Promotions == 0 || ts.Demotions == 0 {
		t.Fatalf("beyond-RAM reads moved nothing through the tiers: %+v", ts)
	}

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
