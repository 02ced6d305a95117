package mdb

import (
	"bytes"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"emap/internal/synth"
)

func makeRecord(id string, n int) *Record {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(i % 17)
	}
	return &Record{ID: id, Class: synth.Normal, Samples: samples, Onset: -1}
}

func TestInsertAndSlice(t *testing.T) {
	s := NewStore()
	created, err := s.Insert(makeRecord("r1", 3500), 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if created != 3 { // 3500/1000 → 3 full slices
		t.Fatalf("created %d slices, want 3", created)
	}
	if s.NumSets() != 3 || s.NumRecords() != 1 {
		t.Fatalf("store counts: sets=%d records=%d", s.NumSets(), s.NumRecords())
	}
	sets := s.Sets()
	for i, set := range sets {
		if set.Start != i*1000 || set.Length != 1000 {
			t.Fatalf("slice %d spans [%d, +%d)", i, set.Start, set.Length)
		}
		if set.ID != i {
			t.Fatalf("slice %d has ID %d", i, set.ID)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.Insert(nil, 1000, nil); err == nil {
		t.Fatal("nil record should error")
	}
	if _, err := s.Insert(&Record{}, 1000, nil); err == nil {
		t.Fatal("empty ID should error")
	}
	if _, err := s.Insert(makeRecord("x", 100), 0, nil); err == nil {
		t.Fatal("zero slice length should error")
	}
	if _, err := s.Insert(makeRecord("x", 100), MaxSliceLen+1, nil); err == nil || s.NumRecords() != 0 {
		t.Fatalf("slice length above MaxSliceLen: err = %v, %d records published", err, s.NumRecords())
	}
	if _, err := NewStore().InsertQuantized(&Record{ID: "q"}, make([]int16, 100), 1, MaxSliceLen+1, nil); err == nil {
		t.Fatal("quantized insert with a slice length above MaxSliceLen should error")
	}
	if created, err := s.Insert(makeRecord("max", 100), MaxSliceLen, nil); err != nil || created != 0 {
		t.Fatalf("slice length MaxSliceLen: %d sets, %v", created, err)
	}
	if _, err := s.Insert(makeRecord("dup", 2000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(makeRecord("dup", 2000), 1000, nil); err == nil {
		t.Fatal("duplicate ID should error")
	}
}

func TestLabelFunction(t *testing.T) {
	s := NewStore()
	_, err := s.Insert(makeRecord("r", 5000), 1000, func(start int) bool { return start >= 3000 })
	if err != nil {
		t.Fatal(err)
	}
	normal, anomalous := s.LabelCounts()
	if normal != 3 || anomalous != 2 {
		t.Fatalf("labels: normal=%d anomalous=%d, want 3/2", normal, anomalous)
	}
	if got := len(s.SetsByLabel(true)); got != 2 {
		t.Fatalf("SetsByLabel(true) = %d", got)
	}
}

func TestWindowViewSemantics(t *testing.T) {
	s := NewStore()
	if _, err := s.Insert(makeRecord("r", 3000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	set := s.Sets()[0] // spans [0, 1000)
	// Window may extend beyond the slice into the parent recording.
	win, ok := s.Window(set, 900, 256)
	if !ok || len(win) != 256 {
		t.Fatalf("window past slice end: ok=%v len=%d", ok, len(win))
	}
	// The record is held as counts: a sample reads back within half a
	// quantization step.
	rec, _ := s.Record("r")
	if step := rec.Quant().Scale; math.Abs(win[0]-float64(900%17)) > step/2 {
		t.Fatalf("window content wrong: %g (step %g)", win[0], step)
	}
	// ...but not beyond the recording.
	if _, ok := s.Window(set, 2800, 256); ok {
		t.Fatal("window past recording end should fail")
	}
	if _, ok := s.Window(set, -1, 10); ok {
		t.Fatal("negative offset should fail")
	}
	if _, ok := s.Window(&SignalSet{RecordID: "ghost"}, 0, 10); ok {
		t.Fatal("missing record should fail")
	}
}

func TestShards(t *testing.T) {
	s := NewStore()
	if _, err := s.Insert(makeRecord("r", 10000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	shards := s.Shards(3)
	total := 0
	for _, sh := range shards {
		total += len(sh)
	}
	if total != 10 {
		t.Fatalf("shards cover %d sets, want 10", total)
	}
	if len(shards) != 3 {
		t.Fatalf("%d shards, want 3", len(shards))
	}
	// More shards than sets: each shard nonempty.
	shards = s.Shards(100)
	if len(shards) != 10 {
		t.Fatalf("oversharded into %d, want 10", len(shards))
	}
	if NewStore().Shards(4) != nil {
		t.Fatal("empty store should have no shards")
	}
	if got := s.Shards(0); len(got) != 1 {
		t.Fatalf("Shards(0) = %d shards, want 1", len(got))
	}
}

func TestRecordLookup(t *testing.T) {
	s := NewStore()
	if _, err := s.Insert(makeRecord("abc", 1500), 1000, nil); err != nil {
		t.Fatal(err)
	}
	if r, ok := s.Record("abc"); !ok || r.ID != "abc" {
		t.Fatal("Record lookup failed")
	}
	if _, ok := s.Record("missing"); ok {
		t.Fatal("missing record lookup should fail")
	}
	if r, _ := s.Record("abc"); r.Samples != nil || len(r.Quant().Counts) != 1500 || r.Len() != 1500 {
		t.Fatalf("inserted record keeps %d float samples beside %d counts", len(r.Samples), len(r.Quant().Counts))
	}
	if ids := s.RecordIDs(); len(ids) != 1 || ids[0] != "abc" {
		t.Fatalf("RecordIDs = %v", ids)
	}
	if s.TotalSamples() != 1500 {
		t.Fatalf("TotalSamples = %d", s.TotalSamples())
	}
}

// TestTotalSamplesCachedAcrossEpochs: the per-view cached total must
// track inserts, survive SubsetSets (which shares the record spine) and
// the persistence round trip.
func TestTotalSamplesCachedAcrossEpochs(t *testing.T) {
	s := NewStore()
	if s.TotalSamples() != 0 {
		t.Fatalf("empty store TotalSamples = %d", s.TotalSamples())
	}
	if _, err := s.Insert(makeRecord("a", 1500), 1000, nil); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if _, err := s.Insert(makeRecord("b", 2500), 1000, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalSamples(); got != 4000 {
		t.Fatalf("TotalSamples after two inserts = %d, want 4000", got)
	}
	if got := snap.TotalSamples(); got != 1500 {
		t.Fatalf("captured epoch TotalSamples = %d, want 1500", got)
	}
	// SubsetSets trims the set spine, not the records.
	if got := s.SubsetSets(1).TotalSamples(); got != 4000 {
		t.Fatalf("SubsetSets TotalSamples = %d, want 4000", got)
	}
	loaded, err := LoadColumnar(bytes.NewReader(encodeStore(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.TotalSamples(); got != 4000 {
		t.Fatalf("loaded TotalSamples = %d, want 4000", got)
	}
}

func TestConcurrentReads(t *testing.T) {
	s := NewStore()
	if _, err := s.Insert(makeRecord("r", 50000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sets := s.Sets()
				_, _ = s.Window(sets[j%len(sets)], 0, 256)
				_, _ = s.LabelCounts()
			}
		}()
	}
	wg.Wait()
}

// testCorpus is the fixed four-recording corpus of buildTestStore.
func testCorpus() []*synth.Recording {
	g := synth.NewGenerator(synth.Config{Seed: 3, ArchetypesPerClass: 2})
	return []*synth.Recording{
		g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 30}),
		g.Instance(synth.Seizure, 0, synth.InstanceOpts{OffsetSamples: (synth.OnsetAt - 60) * 256, DurSeconds: 90}),
		g.Instance(synth.Encephalopathy, 0, synth.InstanceOpts{DurSeconds: 30}),
		g.Instance(synth.Stroke, 0, synth.InstanceOpts{DurSeconds: 30, Rate: 128}),
	}
}

func buildTestStore(t *testing.T) *Store {
	t.Helper()
	store, err := Build(testCorpus(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// assertOneRepresentation: every record of the store is int16 counts on
// a valid scale and holds no float samples — whatever built, inserted or
// loaded it.
func assertOneRepresentation(t *testing.T, label string, s *Store) {
	t.Helper()
	for _, id := range s.RecordIDs() {
		rec, _ := s.Record(id)
		qv := rec.Quant()
		if rec.Samples != nil || rec.q == nil || len(qv.Counts) != rec.Len() || !validScale(qv.Scale) {
			t.Fatalf("%s: record %q holds %d float samples, %d counts of %d, scale %v", label, id, len(rec.Samples), len(qv.Counts), rec.Len(), qv.Scale)
		}
	}
}

// TestBuildQuantizesAtBuild: Build holds, per recording, exactly
// quantizeSamples(Preprocess(raw).Samples) — the quantizer
// the columnar writer applied to a float store before records were
// counts — so the columnar image of the fixed test corpus is, byte for
// byte, the one a float Insert store of the same recordings saved then
// (the CRC was taken at the last commit that held float records).
// Insert of the same processed samples stores the same counts.
func TestBuildQuantizesAtBuild(t *testing.T) {
	raws, cfg := testCorpus(), DefaultBuildConfig()
	store, err := Build(raws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertOneRepresentation(t, "Build", store)
	inserted := NewStore()
	for _, raw := range raws {
		proc, err := Preprocess(raw, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts, scale := quantizeSamples(proc.Samples)
		rec, _ := store.Record(raw.ID)
		if qv := rec.Quant(); qv.Scale != scale || !slices.Equal(qv.Counts, counts) {
			t.Fatalf("record %q: Build holds scale %v and counts that are not quantizeSamples(Preprocess) (scale %v)", raw.ID, qv.Scale, scale)
		}
		if _, err := inserted.Insert(proc, cfg.SliceLen, LabelFor(proc, cfg)); err != nil {
			t.Fatal(err)
		}
		if proc.Samples != nil {
			t.Fatalf("record %q keeps its float samples after Insert", raw.ID)
		}
	}
	assertOneRepresentation(t, "Insert", inserted)
	raw := encodeStore(t, store)
	if got := crc32.ChecksumIEEE(raw); len(raw) != 104104 || got != 0x07e3c92a {
		t.Fatalf("columnar image of the fixed corpus: %d bytes, CRC %#08x; the float store's was 104104 bytes, 0x07e3c92a", len(raw), got)
	}
	if !bytes.Equal(raw, encodeStore(t, inserted)) {
		t.Fatal("Build and per-recording Insert of the same recordings save different images")
	}
}

func TestBuildPipeline(t *testing.T) {
	store := buildTestStore(t)
	if store.NumRecords() != 4 {
		t.Fatalf("records = %d", store.NumRecords())
	}
	if store.NumSets() == 0 {
		t.Fatal("no signal-sets created")
	}
	// Encephalopathy/stroke recordings: every slice anomalous.
	for _, set := range store.Sets() {
		switch set.Class {
		case synth.Encephalopathy, synth.Stroke:
			if !set.Anomalous {
				t.Fatalf("%v slice at %d not anomalous", set.Class, set.Start)
			}
		case synth.Normal:
			if set.Anomalous {
				t.Fatalf("normal slice at %d anomalous", set.Start)
			}
		}
	}
	// The seizure recording (onset 60 s into the crop, annotated)
	// must contribute anomalous slices.
	seizureAnom := 0
	for _, set := range store.Sets() {
		if set.Class == synth.Seizure && set.Anomalous {
			seizureAnom++
		}
	}
	if seizureAnom == 0 {
		t.Fatal("seizure recording produced no anomalous slices")
	}
}

func TestBuildResamples(t *testing.T) {
	store := buildTestStore(t)
	for _, id := range store.RecordIDs() {
		rec, _ := store.Record(id)
		if rec.Class == synth.Stroke {
			// 30 s at 128 Hz → resampled to 256 Hz ≈ 7680 samples
			// minus the 100-tap warmup trim.
			got := rec.Len()
			if got < 7000 || got > 7700 {
				t.Fatalf("resampled stroke recording has %d samples", got)
			}
		}
	}
}

func TestBuildPreictalLabelling(t *testing.T) {
	g := synth.NewGenerator(synth.Config{Seed: 5, ArchetypesPerClass: 2})
	// Crop with onset at 60 s; preictal label window 30 s ⇒ slices
	// starting before 30 s are normal, after are anomalous.
	rec := g.Instance(synth.Seizure, 0, synth.InstanceOpts{OffsetSamples: (synth.OnsetAt - 60) * 256, DurSeconds: 90})
	if rec.Onset != 60*256 {
		t.Fatalf("test setup: onset %d", rec.Onset)
	}
	cfg := DefaultBuildConfig()
	cfg.PreictalLabelSeconds = 30
	store, err := Build([]*synth.Recording{rec}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Onset in the processed record ≈ 60·256 − 100 (warmup trim).
	procOnset := 60*256 - 100
	boundary := procOnset - 30*256
	for _, set := range store.Sets() {
		want := set.Start >= boundary
		if set.Anomalous != want {
			t.Fatalf("slice at %d: anomalous=%v, want %v (boundary %d)", set.Start, set.Anomalous, want, boundary)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	store := buildTestStore(t)
	var buf bytes.Buffer
	if err := store.Snapshot().SaveColumnar(&buf); err != nil {
		t.Fatalf("SaveColumnar: %v", err)
	}
	got, err := LoadColumnar(&buf)
	if err != nil {
		t.Fatalf("LoadColumnar: %v", err)
	}
	if got.NumRecords() != store.NumRecords() || got.NumSets() != store.NumSets() {
		t.Fatalf("counts differ after round trip: %d/%d vs %d/%d",
			got.NumRecords(), got.NumSets(), store.NumRecords(), store.NumSets())
	}
	n1, a1 := store.LabelCounts()
	n2, a2 := got.LabelCounts()
	if n1 != n2 || a1 != a2 {
		t.Fatalf("labels differ: %d/%d vs %d/%d", n1, a1, n2, a2)
	}
	// Save → load preserves every record's (counts, scale).
	assertOneRepresentation(t, "round trip", got)
	for _, id := range got.RecordIDs() {
		want, _ := store.Record(id)
		rec, _ := got.Record(id)
		if w, g := want.Quant(), rec.Quant(); g.Scale != w.Scale || !slices.Equal(g.Counts, w.Counts) {
			t.Fatalf("record %s: counts or scale (%v, was %v) changed across the round trip", id, g.Scale, w.Scale)
		}
	}
	// Windows must read identically.
	set1, set2 := store.Sets()[0], got.Sets()[0]
	w1, ok1 := store.Window(set1, 100, 256)
	w2, ok2 := got.Window(set2, 100, 256)
	if !ok1 || !ok2 {
		t.Fatal("window read failed")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("window sample %d differs", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	store := buildTestStore(t)
	path := filepath.Join(t.TempDir(), "mdb.snap")
	if err := store.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.NumSets() != store.NumSets() {
		t.Fatal("file round trip lost sets")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file should error")
	}
	// A gob snapshot is no longer served: LoadFile names the tool
	// that converts it.
	gobPath := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(gobPath, gobImage(t, store), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(gobPath); err == nil || !strings.Contains(err.Error(), "emap-mdb convert") {
		t.Fatalf("LoadFile of a gob snapshot: err = %v, want the convert hint", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	garbage := []byte("neither a gob stream nor a columnar image")
	if _, err := LoadColumnar(bytes.NewReader(garbage)); err == nil {
		t.Fatal("garbage input should error")
	}
	if _, err := LoadGob(bytes.NewReader(garbage)); err == nil {
		t.Fatal("garbage gob input should error")
	}
}

func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		_, _ = s.Insert(makeRecord("r", 30000), 1000, nil)
	}
}

func BenchmarkWindow(b *testing.B) {
	s := NewStore()
	_, _ = s.Insert(makeRecord("r", 30000), 1000, nil)
	set := s.Sets()[5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Window(set, i%500, 256)
	}
}
