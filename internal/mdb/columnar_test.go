package mdb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emap/internal/kernel"
	"emap/internal/synth"
)

// sineCounts builds a deterministic int16 waveform with nonzero mean
// blocks, so the block checkpoint sums are exercised with non-trivial
// values.
func sineCounts(n int, amp float64, phase float64) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(amp * math.Sin(phase+float64(i)/9.0))
	}
	return out
}

// buildQuantStore assembles a columnar-saving store with records of the
// given lengths (deliberately including non-multiple-of-qBlockLen
// lengths) and one labelled slicing per record.
func buildQuantStore(t testing.TB, lengths []int) *Store {
	t.Helper()
	s := NewStore()
	for i, n := range lengths {
		rec := &Record{
			ID:        "q" + string(rune('a'+i)),
			Class:     synth.Seizure,
			Archetype: i,
			Onset:     100 * i,
		}
		counts := sineCounts(n, 12000+500*float64(i), float64(i))
		scale := float32(0.0125) * float32(i+1)
		if _, err := s.InsertQuantized(rec, counts, scale, 500, func(start int) bool { return start >= n/2 }); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// assertStoresEqual verifies that two stores hold the same epochs:
// record identity and samples (via Window), set spines, labels.
func assertStoresEqual(t *testing.T, label string, want, got *Store) {
	t.Helper()
	if got.NumRecords() != want.NumRecords() || got.NumSets() != want.NumSets() {
		t.Fatalf("%s: counts %d/%d, want %d/%d", label,
			got.NumRecords(), got.NumSets(), want.NumRecords(), want.NumSets())
	}
	wids, gids := want.RecordIDs(), got.RecordIDs()
	for i := range wids {
		if wids[i] != gids[i] {
			t.Fatalf("%s: record order differs at %d: %q vs %q", label, i, gids[i], wids[i])
		}
		wr, _ := want.Record(wids[i])
		gr, _ := got.Record(wids[i])
		if wr.Len() != gr.Len() || wr.Class != gr.Class || wr.Archetype != gr.Archetype || wr.Onset != gr.Onset {
			t.Fatalf("%s: record %q metadata differs", label, wids[i])
		}
	}
	wsets, gsets := want.Sets(), got.Sets()
	for i := range wsets {
		if *wsets[i] != *gsets[i] {
			t.Fatalf("%s: set %d differs: %+v vs %+v", label, i, *gsets[i], *wsets[i])
		}
	}
	for _, set := range wsets {
		w1, ok1 := want.Window(set, 0, set.Length)
		w2, ok2 := got.Window(set, 0, set.Length)
		if !ok1 || !ok2 {
			t.Fatalf("%s: window read failed on set %d", label, set.ID)
		}
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatalf("%s: set %d sample %d differs: %g vs %g", label, set.ID, j, w2[j], w1[j])
			}
		}
	}
}

func encodeStore(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot().SaveColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestColumnarRoundTripEager(t *testing.T) {
	s := buildQuantStore(t, []int{1280, 1000, 2049})
	raw := encodeStore(t, s)
	got, err := LoadColumnar(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, "eager", s, got)
	// The counts and scales must survive verbatim, not merely the
	// dequantized values.
	for _, id := range s.RecordIDs() {
		wr, _ := s.Record(id)
		gr, _ := got.Record(id)
		wq, gq := wr.Quant(), gr.Quant()
		if gq.Scale != wq.Scale {
			t.Fatalf("record %q scale %v, want %v", id, gq.Scale, wq.Scale)
		}
		for i := range wq.Counts {
			if wq.Counts[i] != gq.Counts[i] {
				t.Fatalf("record %q count %d differs", id, i)
			}
		}
	}
}

// TestColumnarConvertBitStable: decode→re-encode of a columnar image
// reproduces it byte for byte, and a gob image of the same store —
// encoded here, since nothing else writes one — converts through
// LoadGob to those same bytes: the contract of emap-mdb convert.
func TestColumnarConvertBitStable(t *testing.T) {
	qs := buildQuantStore(t, []int{1280, 777})
	raw := encodeStore(t, qs)
	loaded, err := LoadColumnar(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeStore(t, loaded); !bytes.Equal(raw, again) {
		t.Fatal("columnar→load→save is not bit-stable")
	}

	// An ingested store's largest count is whatever the edge sent, not
	// the 32 000 the quantizer aims a peak at: re-quantizing its
	// dequantized samples would move every count, so the gob image
	// carries the counts themselves.
	back, err := LoadGob(bytes.NewReader(gobImage(t, qs)))
	if err != nil {
		t.Fatal(err)
	}
	if c := encodeStore(t, back); !bytes.Equal(raw, c) {
		t.Fatal("gob→LoadGob→columnar differs from the store's own columnar image")
	}
	// A gob image from before records were counts holds float samples:
	// loading it quantizes them as Build does.
	old := gobSnapshot{Version: gobVersion}
	cfg := DefaultBuildConfig()
	for _, raw := range testCorpus() {
		proc, err := Preprocess(raw, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		old.Records = append(old.Records, gobRecord{ID: proc.ID, Class: int(proc.Class), Archetype: proc.Archetype, Onset: proc.Onset, Samples: proc.Samples})
	}
	fs := buildTestStore(t)
	for _, set := range fs.Sets() {
		old.Sets = append(old.Sets, *set)
	}
	fromLegacy, err := LoadGob(bytes.NewReader(gobBytes(t, &old)))
	if err != nil {
		t.Fatal(err)
	}
	assertOneRepresentation(t, "legacy gob", fromLegacy)
	if !bytes.Equal(encodeStore(t, fs), encodeStore(t, fromLegacy)) {
		t.Fatal("a float gob image loads to different counts than Build of the same recordings")
	}
}

// gobImage encodes s as the gob snapshot stores were saved as before
// the columnar image became the only format: each record's counts and
// scale, and the set table.
func gobImage(t testing.TB, s *Store) []byte {
	t.Helper()
	snap := gobSnapshot{Version: gobVersion}
	for _, id := range s.RecordIDs() {
		r, _ := s.Record(id)
		q := r.Quant()
		snap.Records = append(snap.Records, gobRecord{ID: r.ID, Class: int(r.Class), Archetype: r.Archetype, Onset: r.Onset, Counts: q.Counts, Scale: q.Scale})
	}
	for _, set := range s.Sets() {
		snap.Sets = append(snap.Sets, *set)
	}
	return gobBytes(t, &snap)
}

func gobBytes(t testing.TB, snap *gobSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColumnarQuantizationErrorBound: storing processed samples — and
// saving and loading them — perturbs each by at most half a
// quantization step.
func TestColumnarQuantizationErrorBound(t *testing.T) {
	got, err := LoadColumnar(bytes.NewReader(encodeStore(t, buildTestStore(t))))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBuildConfig()
	for _, raw := range testCorpus() {
		proc, err := Preprocess(raw, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		id := raw.ID
		gr, _ := got.Record(id)
		qv := gr.Quant()
		deq := make([]float64, gr.Len())
		qv.Dequantize(deq, 0, gr.Len())
		for i, v := range proc.Samples {
			if d := math.Abs(v - deq[i]); d > qv.Scale/2+1e-12 {
				t.Fatalf("record %q sample %d off by %g (> step/2 = %g)", id, i, d, qv.Scale/2)
			}
		}
	}
}

// TestLoadFileMmapCold: a columnar snapshot opened through LoadFile
// serves its records straight out of the mapping — cold tier, zero
// promoted bytes — and reads identically to the eager loader.
func TestLoadFileMmapCold(t *testing.T) {
	s := buildQuantStore(t, []int{1280, 1000, 2049})
	path := filepath.Join(t.TempDir(), "mdb.col")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := mapFile(path); err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range got.RecordIDs() {
		rec, _ := got.Record(id)
		if rec.Tier() != TierCold {
			t.Fatalf("mmap-loaded record %q starts %v, want cold", id, rec.Tier())
		}
	}
	ts := got.TierStats()
	if ts.HotBytes != 0 || ts.WarmBytes != 0 || ts.ColdBytes == 0 {
		t.Fatalf("mmap tier stats = %+v, want everything cold", ts)
	}
	assertStoresEqual(t, "mmap", s, got)
}

// TestSaveFileAtomic: SaveFile must leave exactly the target file (no
// temp residue) and replace an existing snapshot atomically;
// SaveFileFormat names the one format or writes nothing.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mdb.col")
	s := buildQuantStore(t, []int{1000})
	if err := s.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different epoch: the replacement must land whole.
	s2 := buildQuantStore(t, []int{2000, 1280})
	if err := s2.Snapshot().SaveFileFormat(path, FormatColumnar); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{0, 1, 3} {
		if err := s.Snapshot().SaveFileFormat(path, f); err == nil {
			t.Fatalf("SaveFileFormat accepted format %d", f)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "mdb.col" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only mdb.col", names)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != 2 {
		t.Fatalf("replacement snapshot has %d records, want 2", got.NumRecords())
	}
}

// TestLoadRejectsTruncatedSnapshots: every proper prefix of a snapshot
// — the torn file a crash mid-write would leave without the atomic
// rename — must be rejected with an error: a columnar image by both
// LoadColumnar and LoadFile, a gob image by LoadGob.
func TestLoadRejectsTruncatedSnapshots(t *testing.T) {
	cuts := func(full []byte) []int { return []int{0, 4, len(full) / 4, len(full) / 2, len(full) - 1} }
	raw := encodeStore(t, buildQuantStore(t, []int{1280, 1000}))
	for _, cut := range cuts(raw) {
		if _, err := LoadColumnar(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("columnar truncated to %d of %d bytes loaded without error", cut, len(raw))
		}
		path := filepath.Join(t.TempDir(), "torn.snap")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Fatalf("columnar file truncated to %d bytes loaded without error", cut)
		}
	}
	gobRaw := gobImage(t, buildTestStore(t))
	for _, cut := range cuts(gobRaw) {
		if _, err := LoadGob(bytes.NewReader(gobRaw[:cut])); err == nil {
			t.Fatalf("gob truncated to %d of %d bytes loaded without error", cut, len(gobRaw))
		}
	}
}

// TestColumnarRejectsCorruption: single flipped bytes in the data
// region, the record index, and the set table must all be caught by a
// checksum or a structural check — never produce a silently wrong
// store.
func TestColumnarRejectsCorruption(t *testing.T) {
	s := buildQuantStore(t, []int{1280, 1000})
	raw := encodeStore(t, s)
	flips := []int{
		9,               // version field
		headerSize + 10, // counts column
		len(raw) / 2,    // somewhere mid-image
		len(raw) - 100,  // tables region
		len(raw) - 2,    // trailing CRC
	}
	for _, pos := range flips {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := LoadColumnar(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d loaded without error", pos)
		}
	}
	// An image without the magic is not columnar, and the error says
	// what converts the one other image a store ever wrote.
	mut := append([]byte(nil), raw...)
	mut[0] ^= 0xff
	if _, err := LoadColumnar(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "emap-mdb convert") {
		t.Fatalf("corrupt magic: err = %v, want the convert hint", err)
	}
}

// TestCountsColumnRoutesAgree: the one-copy route a little-endian host
// writes the counts column with and the per-sample loop every other
// host runs are one encoder. The loop is held to the format's
// definition everywhere; the host's route is held to the loop, and a
// whole image is held to what the per-sample eager loader reads back.
func TestCountsColumnRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 999, 1024, 2049} {
		counts := make([]int16, n)
		for i := range counts {
			counts[i] = int16(rng.Intn(1 << 16))
		}
		if n > 2 {
			counts[0], counts[n/2], counts[n-1] = math.MinInt16, math.MaxInt16, -1
		}
		want := make([]byte, 2*n)
		for i, c := range counts {
			want[2*i], want[2*i+1] = byte(uint16(c)), byte(uint16(c)>>8)
		}
		// Columns sit 8-aligned inside a larger image: write at offset
		// 8 with guard bytes after, as encodeColumnar does.
		for name, put := range map[string]func([]byte, []int16){"portable": putCountsPortable, "host": putCounts} {
			img := make([]byte, 8+2*n+8)
			for i := range img {
				img[i] = 0xA5
			}
			put(img[8:], counts)
			if !bytes.Equal(img[8:8+2*n], want) {
				t.Fatalf("n=%d: %s route diverges from the little-endian definition", n, name)
			}
			for i, b := range img {
				if (i < 8 || i >= 8+2*n) && b != 0xA5 {
					t.Fatalf("n=%d: %s route wrote outside its column (byte %d)", n, name, i)
				}
			}
		}
	}

	lengths := []int{1, 63, 999, 1281}
	s := NewStore()
	for i, n := range lengths {
		counts := sineCounts(n, 30000, float64(i))
		counts[0] = math.MinInt16
		if _, err := s.InsertQuantized(&Record{ID: fmt.Sprint("odd", i)}, counts, 0.5, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadColumnar(bytes.NewReader(encodeStore(t, s))) // eager: le.Uint16 per sample, CRC checked
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.RecordIDs() {
		wr, _ := s.Record(id)
		gr, _ := got.Record(id)
		wq, gq := wr.Quant(), gr.Quant()
		if len(wq.Counts) != len(gq.Counts) {
			t.Fatalf("record %q: %d counts read back, wrote %d", id, len(gq.Counts), len(wq.Counts))
		}
		for i := range wq.Counts {
			if wq.Counts[i] != gq.Counts[i] {
				t.Fatalf("record %q count %d: read %d, wrote %d", id, i, gq.Counts[i], wq.Counts[i])
			}
		}
	}
}

// BenchmarkEncodeColumnar prices the in-memory half of an eviction
// persist: one 1 100-record tenant of 1 024-sample recordings encoded to
// its columnar image (the other half is the file write and fsync).
func BenchmarkEncodeColumnar(b *testing.B) {
	v := quantStoreOf(b, 1100, sineCounts(1024, 9000, 0)).v.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeColumnar(v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestColumnarRefusesOversizeSlice: the exact window sums a scan over
// counts rests on hold only while no signal-set is longer than
// MaxSliceLen, and a snapshot file is the one way a longer one could get
// past Insert's check. A snapshot whose one set is exactly MaxSliceLen
// long loads, eagerly and memory-mapped; the same image with that set's
// length raised by one — the table checksum re-made, so nothing but the
// length is wrong — is refused by both loaders with no store to show for
// it.
func TestColumnarRefusesOversizeSlice(t *testing.T) {
	counts := make([]int16, MaxSliceLen+1) // a 2 MiB record: room for the longer set
	for i := range counts {
		counts[i] = int16(i%251 - 125)
	}
	s := NewStore()
	if created, err := s.InsertQuantized(&Record{ID: "long"}, counts, 0.5, MaxSliceLen, nil); err != nil || created != 1 {
		t.Fatalf("insert at MaxSliceLen: %d sets, %v", created, err)
	}
	img := encodeStore(t, s)
	load := func(name string, img []byte) (eager, mapped *Store, errs [2]error) {
		eager, errs[0] = LoadColumnar(bytes.NewReader(img))
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, img, 0o600); err != nil {
			t.Fatal(err)
		}
		mapped, errs[1] = LoadFile(path)
		return eager, mapped, errs
	}
	eager, mapped, errs := load("admitted.col", img)
	if errs[0] != nil || errs[1] != nil || eager.NumSets() != 1 || mapped.NumSets() != 1 || mapped.Sets()[0].Length != MaxSliceLen {
		t.Fatalf("a set of MaxSliceLen samples: eager %v, mapped %v", errs[0], errs[1])
	}

	h, err := parseColumnarHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	le.PutUint32(img[h.setsOff+12:], MaxSliceLen+1)
	tablesEnd := h.fileSize - 4
	le.PutUint32(img[tablesEnd:], crc32.Checksum(img[h.indexOff:tablesEnd], castagnoli))
	eager, mapped, errs = load("oversize.col", img)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "samples long") {
			t.Fatalf("loader %d: a set of MaxSliceLen+1 samples: %v", i, err)
		}
	}
	if eager != nil || mapped != nil {
		t.Fatal("a refused snapshot still produced a store")
	}
}

// TestLargestPassSumsExact: the longest pass a scan can build — one
// slice of MaxSliceLen and one query of MaxSliceLen less a sample —
// with every count MinInt16, whose square is the largest a count has:
// the running Σc and Σc² kernel.Widen hands the step are still the
// integers, entry by entry, so every window's D_c is formed from exact
// sums.
func TestLargestPassSumsExact(t *testing.T) {
	const pass = 2*MaxSliceLen - 1
	c := make([]int16, pass)
	for i := range c {
		c[i] = math.MinInt16
	}
	sums := make([][2]float64, pass+1)
	kernel.Widen(sums, c)
	for i, got := range sums {
		if sum, sumSq := int64(i)*math.MinInt16, int64(i)<<30; int64(got[0]) != sum || int64(got[1]) != sumSq || got[0] != float64(sum) || got[1] != float64(sumSq) {
			t.Fatalf("sums[%d] = %v, want (%d, %d)", i, got, sum, sumSq)
		}
	}
	if last := int64(pass) << 30; last >= 1<<53 || pass > kernel.MaxWidenLen {
		t.Fatalf("the largest pass's Σc² = %d does not fit float64's integers", last)
	}
}
