package mdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"emap/internal/synth"
)

// epochCapture is everything a snapshot reported at the moment it was
// taken, to be held against what it reports after the store moved on.
type epochCapture struct {
	sn           Snapshot
	records      int
	sets         []*SignalSet
	totalSamples int
	ids          []string
}

func capture(s *Store) epochCapture {
	sn := s.Snapshot()
	return epochCapture{
		sn:           sn,
		records:      sn.NumRecords(),
		sets:         append([]*SignalSet(nil), sn.Sets()...),
		totalSamples: sn.TotalSamples(),
		ids:          sn.RecordIDs(),
	}
}

// TestEpochsImmutableUnderAppends: the spines are shared between
// epochs, so the property to hold is that no later insert shows through
// an earlier snapshot — counts, set slice, record IDs, samples — and in
// particular that Record does not find a record newer than the
// snapshot although the shared index already holds it.
func TestEpochsImmutableUnderAppends(t *testing.T) {
	const inserts = 48
	rng := rand.New(rand.NewSource(18))
	s := NewQuantizedStore()
	want := map[string][]float64{} // record ID → the samples inserted
	caps := []epochCapture{capture(s)}
	for i := 0; i < inserts; i++ {
		id := fmt.Sprint("r", i)
		n := 300 + rng.Intn(1200)
		if i%2 == 0 {
			rec := makeRecord(id, n)
			// What the store keeps of float samples: their counts.
			counts, scale := quantizeSamples(rec.Samples)
			f := make([]float64, n)
			for j, c := range counts {
				f[j] = float64(c) * scale
			}
			want[id] = f
			if _, err := s.Insert(rec, 250, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			counts, scale := sineCounts(n, 9000, float64(i)), float32(0.5)
			f := make([]float64, n)
			for j, c := range counts {
				f[j] = float64(c) * float64(scale)
			}
			want[id] = f
			if _, err := s.InsertQuantized(&Record{ID: id}, counts, scale, 250, nil); err != nil {
				t.Fatal(err)
			}
		}
		caps = append(caps, capture(s))
	}

	for k, c := range caps { // epoch k holds records r0 … r(k-1)
		sn := c.sn
		if sn.NumRecords() != k || sn.NumRecords() != c.records || sn.TotalSamples() != c.totalSamples {
			t.Fatalf("epoch %d now reports %d records / %d samples, captured %d / %d",
				k, sn.NumRecords(), sn.TotalSamples(), c.records, c.totalSamples)
		}
		ids := sn.RecordIDs()
		if len(ids) != len(c.ids) {
			t.Fatalf("epoch %d: %d record IDs, captured %d", k, len(ids), len(c.ids))
		}
		for i := range ids {
			if ids[i] != c.ids[i] {
				t.Fatalf("epoch %d: record ID %d is %q, captured %q", k, i, ids[i], c.ids[i])
			}
		}
		sets := sn.Sets()
		if sn.NumSets() != len(c.sets) || len(sets) != len(c.sets) {
			t.Fatalf("epoch %d: %d sets, captured %d", k, len(sets), len(c.sets))
		}
		for i, set := range sets {
			if set != c.sets[i] {
				t.Fatalf("epoch %d: set %d changed identity", k, i)
			}
			w, ok := sn.Window(set, 0, set.Length)
			if !ok {
				t.Fatalf("epoch %d: window of set %d unreadable", k, set.ID)
			}
			ref := want[set.RecordID][set.Start : set.Start+set.Length]
			for j := range w {
				if w[j] != ref[j] {
					t.Fatalf("epoch %d: set %d sample %d = %g, inserted %g", k, set.ID, j, w[j], ref[j])
				}
			}
		}
		for i := 0; i < inserts; i++ {
			rec, ok := sn.Record(fmt.Sprint("r", i))
			if ok != (i < k) {
				t.Fatalf("epoch %d: Record(r%d) found=%v", k, i, ok)
			}
			if ok && rec.ID != fmt.Sprint("r", i) {
				t.Fatalf("epoch %d: Record(r%d) returned %q", k, i, rec.ID)
			}
		}
	}
}

// TestEpochSlicesCannotBeAppendedInto: a view's slices are clipped to
// their length, so a caller appending to Sets() gets a copy and the
// slot behind the epoch stays the store's.
func TestEpochSlicesCannotBeAppendedInto(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ { // leaves slack on both spines
		if _, err := s.Insert(makeRecord(fmt.Sprint("r", i), 1000), 500, nil); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Snapshot()
	sets := sn.Sets()
	if cap(sets) != len(sets) {
		t.Fatalf("Sets() has capacity %d beyond its length %d", cap(sets), len(sets))
	}
	if cap(s.sets) == len(s.sets) {
		t.Fatal("test needs slack on the store's spine to mean anything")
	}
	intruder := &SignalSet{ID: -1, RecordID: "intruder"}
	_ = append(sets, intruder)
	if _, err := s.Insert(makeRecord("next", 1000), 500, nil); err != nil {
		t.Fatal(err)
	}
	next := s.Sets()
	if got := next[len(sets)]; got == intruder || got.RecordID != "next" || got.ID != len(sets) {
		t.Fatalf("set %d of the next epoch is %+v", len(sets), *got)
	}
	if sn.NumSets() != len(sets) {
		t.Fatalf("captured epoch grew to %d sets", sn.NumSets())
	}
}

// TestSubsetAndParentInsertIndependently: a SubsetSets store starts on
// its parent's spines and index; an insert into either must not show in
// the other, and an ID stays unique across the two.
func TestSubsetAndParentInsertIndependently(t *testing.T) {
	parent := NewStore()
	for _, id := range []string{"a", "b", "c"} {
		if _, err := parent.Insert(makeRecord(id, 1000), 500, nil); err != nil {
			t.Fatal(err)
		}
	}
	sub := parent.SubsetSets(2)
	before := capture(parent)

	if _, err := sub.Insert(makeRecord("s", 1000), 500, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := parent.Record("s"); ok || parent.NumRecords() != 3 || parent.NumSets() != 6 {
		t.Fatalf("subset insert shows in the parent: %d records, %d sets", parent.NumRecords(), parent.NumSets())
	}
	if parent.Snapshot() != before.sn {
		t.Fatal("subset insert moved the parent's epoch")
	}
	if _, err := parent.Insert(makeRecord("p", 1000), 500, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.Record("p"); ok || sub.NumRecords() != 4 || sub.NumSets() != 4 {
		t.Fatalf("parent insert shows in the subset: %d records, %d sets", sub.NumRecords(), sub.NumSets())
	}
	for store, wantIDs := range map[*Store][]string{parent: {"a", "b", "c", "p"}, sub: {"a", "b", "c", "s"}} {
		ids := store.RecordIDs()
		for i, id := range wantIDs {
			if ids[i] != id {
				t.Fatalf("record IDs %v, want %v", ids, wantIDs)
			}
			if _, ok := store.Record(id); !ok {
				t.Fatalf("record %q lost", id)
			}
		}
		for _, set := range store.Sets() {
			if _, ok := store.Window(set, 0, set.Length); !ok {
				t.Fatalf("set %d (%s) unreadable", set.ID, set.RecordID)
			}
		}
	}
	if sets := sub.Sets(); sets[2].RecordID != "s" || sets[3].RecordID != "s" || sets[1] != before.sets[1] {
		t.Fatalf("subset spine wrong after its insert")
	}
	if sets := parent.Sets(); sets[6].RecordID != "p" || sets[5] != before.sets[5] {
		t.Fatalf("parent spine wrong after its insert")
	}
	if _, err := parent.Insert(makeRecord("s", 1000), 500, nil); err == nil {
		t.Fatal("an ID held by the subset was accepted by the parent")
	}
}

// TestLoadedStoresKeepIngesting: every loader fills the same spines
// and index the insert path appends to. A store loaded each way and
// then inserted into must serve old and new records and encode to the
// bytes of the same data built by inserts alone.
func TestLoadedStoresKeepIngesting(t *testing.T) {
	lengths := []int{1280, 1000, 2049}
	insertExtra := func(t *testing.T, s *Store) {
		t.Helper()
		rec := &Record{ID: "extra", Class: synth.Seizure, Onset: 7}
		if _, err := s.InsertQuantized(rec, sineCounts(1111, 8000, 0.3), 0.25, 500, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, got *Store, want []byte) {
		t.Helper()
		if got.NumRecords() != len(lengths)+1 {
			t.Fatalf("%d records after load + insert", got.NumRecords())
		}
		for _, id := range got.RecordIDs() {
			if _, ok := got.Record(id); !ok {
				t.Fatalf("record %q not found", id)
			}
		}
		for _, set := range got.Sets() {
			if _, ok := got.Window(set, 0, set.Length); !ok {
				t.Fatalf("set %d (%s) unreadable", set.ID, set.RecordID)
			}
		}
		if !bytes.Equal(encodeStore(t, got), want) {
			t.Fatal("columnar image differs from the insert-built store's")
		}
	}

	base := encodeStore(t, buildQuantStore(t, lengths))
	ref := buildQuantStore(t, lengths)
	insertExtra(t, ref)
	want := encodeStore(t, ref)

	t.Run("LoadColumnar", func(t *testing.T) {
		s, err := LoadColumnar(bytes.NewReader(base))
		if err != nil {
			t.Fatal(err)
		}
		insertExtra(t, s)
		check(t, s, want)
	})
	t.Run("LoadFile", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "base.snap")
		if err := buildQuantStore(t, lengths).SaveFile(path); err != nil {
			t.Fatal(err)
		}
		s, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		insertExtra(t, s)
		check(t, s, want)
	})
	t.Run("gob", func(t *testing.T) {
		// A gob snapshot carries float64 samples, so the reference is
		// the float store built by inserts (quantized at encode time).
		build := func() *Store {
			s := NewStore()
			for i, n := range lengths {
				if _, err := s.Insert(makeRecord(fmt.Sprint("f", i), n), 500, nil); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
		ref := build()
		insertExtra(t, ref)
		var buf bytes.Buffer
		if err := build().Save(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		insertExtra(t, s)
		check(t, s, encodeStore(t, ref))
	})
}

// TestReadersStableAcrossSpineGrowth: four readers walk whatever epoch
// they catch — shards, record lookups, windows — while one writer
// appends 2 000 records, reallocating both spines several times under
// them. Run under -race: readers take no lock, so what keeps this
// clean is that a view never reaches the slots the writer fills.
func TestReadersStableAcrossSpineGrowth(t *testing.T) {
	const inserts, readers, recLen = 2000, 4, 64
	s := NewStore()
	record := func(i int) *Record {
		samples := make([]float64, recLen)
		for j := range samples {
			samples[j] = float64(i)
		}
		return &Record{ID: fmt.Sprint("r", i), Samples: samples}
	}
	if _, err := s.Insert(record(0), recLen/2, nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one more pass, over the final epoch
				default:
				}
				sn := s.Snapshot()
				n := sn.NumRecords()
				if sn.NumSets() != 2*n {
					t.Errorf("epoch of %d records has %d sets", n, sn.NumSets())
					return
				}
				if _, ok := sn.Record(fmt.Sprint("r", n)); ok {
					t.Errorf("epoch of %d records finds record r%d", n, n)
					return
				}
				shards := sn.Shards(readers)
				for _, set := range shards[r%len(shards)] {
					rec, ok := sn.Record(set.RecordID)
					if !ok || rec.ID != set.RecordID {
						t.Errorf("epoch of %d records: set %d does not resolve %q", n, set.ID, set.RecordID)
						return
					}
					w, ok := sn.Window(set, 0, set.Length)
					// A record of the constant i reads back as i to within
					// a quantization step.
					if !ok || fmt.Sprint("r", int(math.Round(w[0]))) != set.RecordID || w[0] != w[len(w)-1] {
						t.Errorf("epoch of %d records: set %d of %q reads %v", n, set.ID, set.RecordID, w)
						return
					}
				}
			}
		}(r)
	}

	reallocs, lastCap := 0, cap(s.recs)
	for i := 1; i <= inserts; i++ {
		if _, err := s.Insert(record(i), recLen/2, nil); err != nil {
			t.Error(err)
			break
		}
		if c := cap(s.recs); c != lastCap { // this goroutine is the only writer
			reallocs, lastCap = reallocs+1, c
		}
	}
	close(done)
	wg.Wait()
	if reallocs < 3 {
		t.Fatalf("record spine reallocated %d times; the test needs at least 3", reallocs)
	}
	if s.NumRecords() != inserts+1 {
		t.Fatalf("%d records after %d inserts", s.NumRecords(), inserts)
	}
}

// TestRejectedBatchTouchesNothing: validation of the whole batch —
// against the store and within the batch — precedes every mutation, so
// a batch that fails on its last item leaves the residency manager, the
// records before it and the epoch exactly as they were.
func TestRejectedBatchTouchesNothing(t *testing.T) {
	s := buildQuantStore(t, []int{1000})
	batch := func(ids ...string) []insertion {
		items := make([]insertion, len(ids))
		for i, id := range ids {
			items[i] = insertion{rec: &Record{ID: id}, counts: sineCounts(1000, 5000, float64(i)), scale: 0.5, sliceLen: 500}
		}
		return items
	}
	registered, stats, epoch := len(s.tiers.recs), s.TierStats(), s.Snapshot()
	for name, items := range map[string][]insertion{
		"duplicate within the batch": batch("x", "y", "x"),
		"duplicate of a stored ID":   batch("x", "y", "qa"),
		"invalid slice length":       append(batch("x", "y"), insertion{rec: &Record{ID: "z"}, counts: []int16{1}, scale: 1}),
		// One sample past what keeps a scan's prefix sums exact.
		"oversize slice length": append(batch("x", "y"), insertion{rec: &Record{ID: "z"}, counts: []int16{1}, scale: 1, sliceLen: MaxSliceLen + 1}),
	} {
		if _, err := s.insertBatch(items); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if len(s.tiers.recs) != registered || s.TierStats() != stats || s.Snapshot() != epoch {
			t.Fatalf("%s: rejected batch left %d registered records (was %d), stats %+v (was %+v)",
				name, len(s.tiers.recs), registered, s.TierStats(), stats)
		}
		for _, it := range items[:2] {
			if it.rec.q != nil || it.rec.tiers != nil {
				t.Fatalf("%s: record %q was mutated by the rejected batch", name, it.rec.ID)
			}
		}
		if _, ok := s.Record("x"); ok {
			t.Fatalf("%s: record x of the rejected batch is findable", name)
		}
	}
	created, err := s.insertBatch(batch("x", "y"))
	if err != nil || created != 4 {
		t.Fatalf("clean batch after the rejected ones: %d sets, %v", created, err)
	}
	if len(s.tiers.recs) != registered+2 || s.NumRecords() != 3 {
		t.Fatalf("after the clean batch: %d registered, %d records", len(s.tiers.recs), s.NumRecords())
	}
}

// quantStoreOf returns a quantized store holding n records of 1 024
// samples. The records share one counts slice — payloads are immutable
// — so a 10 000-record store costs its spines, not 20 MB of samples.
func quantStoreOf(tb testing.TB, n int, counts []int16) *Store {
	tb.Helper()
	s := NewQuantizedStore()
	for i := 0; i < n; i++ {
		if _, err := s.InsertQuantized(&Record{ID: fmt.Sprint("resident-", i)}, counts, 0.5, 1000, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestInsertCostFlatInStoreSize pins what the append-only spines buy:
// the bytes an InsertQuantized allocates do not grow with the records
// already stored. (A spine copied per insert allocates 16 B per stored
// record on top of the record map's clone — tens of times more at
// 5 000 records than at 100.) The mean is over 200 inserts, which
// contains the amortised spine doublings; allocation counts are exact
// where a timing ratio would need a quiet machine.
func TestInsertCostFlatInStoreSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const inserts = 200
	counts := sineCounts(1024, 9000, 0)
	bytesPerInsert := func(resident int) float64 {
		s := quantStoreOf(t, resident, counts)
		recs := make([]*Record, inserts)
		for i := range recs {
			recs[i] = &Record{ID: fmt.Sprint("new-", i)}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, rec := range recs {
			if _, err := s.InsertQuantized(rec, counts, 0.5, 1000, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / inserts
	}
	small, large := bytesPerInsert(100), bytesPerInsert(5000)
	t.Logf("InsertQuantized allocates %.0f B at 100 resident records, %.0f B at 5 000", small, large)
	if large > 2*small {
		t.Fatalf("insert into 5 000 records allocates %.0f B, %.1fx the %.0f B into 100", large, large/small, small)
	}
}

// BenchmarkInsertQuantized prices one InsertQuantized of a 1 024-sample
// record into a store already holding at= records. Each 200 timed
// inserts go into a freshly built store, so the store stays at its
// stated size however large b.N is.
func BenchmarkInsertQuantized(b *testing.B) {
	counts := sineCounts(1024, 9000, 0)
	for _, at := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint("at=", at), func(b *testing.B) {
			b.ReportAllocs()
			var s *Store
			for i := 0; i < b.N; i++ {
				if i%200 == 0 {
					b.StopTimer()
					s = quantStoreOf(b, at, counts)
					b.StartTimer()
				}
				if _, err := s.InsertQuantized(&Record{ID: fmt.Sprint("new-", i)}, counts, 0.5, 1000, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
