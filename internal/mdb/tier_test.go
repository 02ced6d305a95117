package mdb

import (
	"os"
	"path/filepath"
	"testing"
)

// coldStoreOf saves a store of records of the given lengths as a
// columnar file and opens it memory-mapped: every record cold. It skips
// the test where mmap is unavailable.
func coldStoreOf(t *testing.T, lengths []int) (cold, origin *Store, path string) {
	t.Helper()
	origin = buildQuantStore(t, lengths)
	path = filepath.Join(t.TempDir(), "mdb.col")
	if err := origin.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := mapFile(path); err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	cold, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return cold, origin, path
}

// TestQuantizedInsertStartsWarm: inserted records rest at the warm tier
// (their counts live in the heap to begin with), hold no promoted bytes
// and never move, whatever the budget and however often they are
// scanned.
func TestQuantizedInsertStartsWarm(t *testing.T) {
	s := buildQuantStore(t, []int{1280, 1000})
	s.SetTierBudget(1 << 20)
	for _, id := range s.RecordIDs() {
		rec, _ := s.Record(id)
		rec.Touch()
		if rec.Tier() != TierWarm {
			t.Fatalf("record %q is %v, want warm", id, rec.Tier())
		}
	}
	s.SetTierBudget(1)
	ts := s.TierStats()
	if ts.HotBytes != 0 || ts.ColdBytes != 0 || ts.WarmBytes == 0 {
		t.Fatalf("inserted store tier stats = %+v", ts)
	}
	if ts.Promotions != 0 || ts.Demotions != 0 {
		t.Fatalf("heap records counted transitions: %+v", ts)
	}
}

// TestBudgetDemotesLRU: shrinking the budget below the promoted bytes
// drops the heap copies of the least recently scanned records first,
// back to the mapped file.
func TestBudgetDemotesLRU(t *testing.T) {
	s, _, _ := coldStoreOf(t, []int{1000, 1000, 1000, 1000})
	ids := s.RecordIDs()
	s.SetTierBudget(1 << 20)
	for _, id := range ids {
		rec, _ := s.Record(id)
		rec.Touch() // cold→warm, LRU order = insertion order
	}
	if ts := s.TierStats(); ts.WarmBytes != 4*warmChargeBytes(1000) || ts.Promotions != 4 {
		t.Fatalf("tier stats before the budget shrinks = %+v", ts)
	}
	// Budget for exactly one heap copy: the three least recently used
	// must fall back to cold; the most recent survives.
	s.SetTierBudget(warmChargeBytes(1000))
	ts := s.TierStats()
	if ts.WarmBytes != warmChargeBytes(1000) || ts.ColdBytes != 3*warmChargeBytes(1000) || ts.Demotions != 3 {
		t.Fatalf("tier stats after budget = %+v", ts)
	}
	for i, id := range ids {
		rec, _ := s.Record(id)
		want := TierCold
		if i == len(ids)-1 {
			want = TierWarm
		}
		if rec.Tier() != want {
			t.Fatalf("record %q is %v, want %v", id, rec.Tier(), want)
		}
	}
}

// TestOpportunisticPromotionNeedsBudget: a scan touch copies a cold
// record into the heap only when a budget grants headroom; without a
// budget the record stays mapped (that being the format's point), and a
// warm record has nowhere further to go.
func TestOpportunisticPromotionNeedsBudget(t *testing.T) {
	cold, _, _ := coldStoreOf(t, []int{1280})
	rec, _ := cold.Record(cold.RecordIDs()[0])
	rec.Touch()
	if rec.Tier() != TierCold {
		t.Fatalf("budget-less touch moved the record to %v", rec.Tier())
	}
	cold.SetTierBudget(warmChargeBytes(1280) - 1)
	rec.Touch()
	if rec.Tier() != TierCold {
		t.Fatalf("a touch promoted past the budget, to %v", rec.Tier())
	}
	cold.SetTierBudget(1 << 20)
	rec.Touch()
	if rec.Tier() != TierWarm {
		t.Fatalf("touch with headroom left the record %v, want warm", rec.Tier())
	}
	rec.Touch()
	if ts := cold.TierStats(); rec.Tier() != TierWarm || ts.Promotions != 1 || ts.HotBytes != 0 {
		t.Fatalf("second touch: record %v, stats %+v, want warm after one promotion", rec.Tier(), ts)
	}
}

// TestBeyondRAMBudget: a memory-mapped store whose counts exceed the
// budget many times over serves every read correctly while the promoted
// bytes stay within the budget: scan accesses under a tight budget cause
// cold→warm promotions only — into headroom, never past it, so nothing
// is demoted — and the rest of the store is read out of the mapping.
func TestBeyondRAMBudget(t *testing.T) {
	lengths := make([]int, 24)
	for i := range lengths {
		lengths[i] = 4096
	}
	cold, s, path := coldStoreOf(t, lengths)
	// Budget: two heap copies out of 24. The mapped file itself is
	// bigger than the budget — the store genuinely exceeds its RAM
	// allowance.
	budget := 2 * warmChargeBytes(4096)
	if st, err := os.Stat(path); err != nil || st.Size() <= budget {
		t.Fatalf("fixture too small to exceed the budget: %v bytes vs %d", st.Size(), budget)
	}
	cold.SetTierBudget(budget)

	// Sweep scan accesses and reads over every record twice; each read
	// must be the exact dequantization of the original counts whatever
	// tier the record was in when asked.
	var buf []float64
	for pass := 0; pass < 2; pass++ {
		for _, set := range cold.Sets() {
			ref, _ := s.Record(set.RecordID)
			qv := ref.Quant()
			rec, _ := cold.Record(set.RecordID)
			rec.Touch()
			f, ok := cold.Snapshot().WindowInto(&buf, set, 0, set.Length)
			if !ok || len(f) != set.Length {
				t.Fatalf("set %d served %d samples, want %d", set.ID, len(f), set.Length)
			}
			for i, c := range qv.Counts[set.Start : set.Start+set.Length] {
				if f[i] != float64(c)*qv.Scale {
					t.Fatalf("pass %d set %d sample %d = %g, want %g", pass, set.ID, i, f[i], float64(c)*qv.Scale)
				}
			}
		}
	}
	ts := cold.TierStats()
	if ts.Promotions != 2 || ts.Demotions != 0 || ts.HotBytes != 0 {
		t.Fatalf("beyond-RAM sweep: %+v, want two cold→warm promotions and nothing else", ts)
	}
	if ts.WarmBytes != budget || ts.ColdBytes != 22*warmChargeBytes(4096) {
		t.Fatalf("resident bytes %+v under a 2-of-24 budget of %d", ts, budget)
	}
}

// TestWindowSumsExact: the checkpointed integer window sums must equal
// a direct summation for windows of every alignment, including ones
// inside a single block and ones spanning the ragged tail.
func TestWindowSumsExact(t *testing.T) {
	n := 1000 // not a multiple of qBlockLen
	counts := sineCounts(n, 11000, 0.3)
	q := newQuantPayload(counts, 0.01)
	qv := QuantView{Counts: q.counts, Scale: q.scale, bsum: q.bsum, bsumSq: q.bsumSq}
	for _, win := range []struct{ start, n int }{
		{0, n}, {0, 1}, {5, 20}, {63, 2}, {64, 64}, {65, 63},
		{100, 500}, {937, 63}, {n - 1, 1}, {130, 1}, {0, 64}, {1, 127},
	} {
		var sum, sumSq int64
		for _, c := range counts[win.start : win.start+win.n] {
			sum += int64(c)
			sumSq += int64(c) * int64(c)
		}
		gs, gq := qv.WindowSums(win.start, win.n)
		if gs != sum || gq != sumSq {
			t.Fatalf("WindowSums(%d,%d) = (%d,%d), want (%d,%d)", win.start, win.n, gs, gq, sum, sumSq)
		}
	}
}

// TestSubsetSharesTierState: a SubsetSets view shares the parent's
// records, so a promotion through the subset is the parent's too and a
// budget set on the parent governs both.
func TestSubsetSharesTierState(t *testing.T) {
	s, _, _ := coldStoreOf(t, []int{1000, 1000})
	s.SetTierBudget(1 << 20)
	sub := s.SubsetSets(1)
	rec, _ := sub.Record(sub.RecordIDs()[0])
	rec.Touch()
	if got := s.TierStats().Promotions; got != 1 {
		t.Fatalf("promotion through subset invisible to parent: %d", got)
	}
	s.SetTierBudget(1)
	if got := sub.TierStats().Demotions; got == 0 {
		t.Fatal("parent budget did not demote the subset's record")
	}
}
