package main

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"emap"
	"emap/internal/mdb"
)

// v1Snapshot, v1Record and v1Set mirror the schema of the gob snapshot
// stores were saved in before the columnar image became the only
// format. gob matches fields by name, so these encode the bytes that
// format held without any code of the store's.
type v1Snapshot struct {
	Version int
	Records []v1Record
	Sets    []v1Set
}

type v1Record struct {
	ID        string
	Class     int
	Archetype int
	Onset     int
	Samples   []float64
	Counts    []int16
	Scale     float64
}

type v1Set struct {
	ID        int
	RecordID  string
	Start     int
	Length    int
	Anomalous bool
	Class     int
	Archetype int
}

// countsStore holds one recording inserted as counts, sliced into
// labelled signal-sets.
func countsStore(t *testing.T) *mdb.Store {
	t.Helper()
	counts := make([]int16, 2500)
	for i := range counts {
		counts[i] = int16((i*37)%2001 - 1000)
	}
	s := mdb.NewStore()
	rec := &mdb.Record{ID: "counts-rec", Class: emap.Seizure, Archetype: 2, Onset: 700}
	if _, err := s.InsertQuantized(rec, counts, 0.25, 1000, func(start int) bool { return start >= 1000 }); err != nil {
		t.Fatal(err)
	}
	return s
}

// v1Image encodes the records and sets of s as a gob snapshot, each
// record as counts and scale, followed by the extra records and sets.
func v1Image(t *testing.T, s *mdb.Store, extra []v1Record, extraSets []v1Set) []byte {
	t.Helper()
	snap := v1Snapshot{Version: 1}
	for _, id := range s.RecordIDs() {
		r, _ := s.Record(id)
		q := r.Quant()
		snap.Records = append(snap.Records, v1Record{ID: r.ID, Class: int(r.Class), Archetype: r.Archetype,
			Onset: r.Onset, Counts: q.Counts, Scale: q.Scale})
	}
	for _, set := range s.Sets() {
		snap.Sets = append(snap.Sets, v1Set{ID: set.ID, RecordID: set.RecordID, Start: set.Start, Length: set.Length,
			Anomalous: set.Anomalous, Class: int(set.Class), Archetype: set.Archetype})
	}
	snap.Records = append(snap.Records, extra...)
	snap.Sets = append(snap.Sets, extraSets...)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// convertFile writes img as a gob file, runs convert on it and returns
// the columnar file's path.
func convertFile(t *testing.T, img []byte) string {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "old.snap"), filepath.Join(dir, "mdb.snap")
	if err := os.WriteFile(in, img, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := runConvert([]string{"-in", in, "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "converted") {
		t.Fatalf("convert printed %q", stdout.String())
	}
	return out
}

// TestConvertKeepsEveryRecord: a gob image holding one counts record
// and one record of the older samples-only kind converts to a columnar
// file that loads to what LoadGob reads from the same bytes.
func TestConvertKeepsEveryRecord(t *testing.T) {
	samples := make([]float64, 1500)
	for i := range samples {
		samples[i] = float64(i%50) - 24.5
	}
	img := v1Image(t, countsStore(t),
		[]v1Record{{ID: "samples-rec", Class: int(emap.Normal), Archetype: 1, Onset: -1, Samples: samples}},
		[]v1Set{{ID: 2, RecordID: "samples-rec", Start: 0, Length: 1000, Class: int(emap.Normal), Archetype: 1}})
	want, err := mdb.LoadGob(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mdb.LoadFile(convertFile(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.RecordIDs(), want.RecordIDs()) || got.NumRecords() != 2 {
		t.Fatalf("records %v, want %v", got.RecordIDs(), want.RecordIDs())
	}
	for _, id := range want.RecordIDs() {
		w, _ := want.Record(id)
		g, _ := got.Record(id)
		wq, gq := w.Quant(), g.Quant()
		if g.Class != w.Class || g.Archetype != w.Archetype || g.Onset != w.Onset ||
			gq.Scale != wq.Scale || !slices.Equal(gq.Counts, wq.Counts) {
			t.Fatalf("record %q changed in conversion", id)
		}
	}
	ws, gs := want.Sets(), got.Sets()
	if len(gs) != len(ws) || len(gs) != 3 {
		t.Fatalf("%d sets, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if *gs[i] != *ws[i] {
			t.Fatalf("set %d: %+v, want %+v", i, *gs[i], *ws[i])
		}
	}
}

// TestConvertIsTheColumnarImage: a counts-only gob image converts to
// exactly the bytes the store it was taken from saves as.
func TestConvertIsTheColumnarImage(t *testing.T) {
	src := countsStore(t)
	got, err := os.ReadFile(convertFile(t, v1Image(t, src, nil, nil)))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := src.Snapshot().SaveColumnar(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("converted file (%d bytes) differs from the store's columnar image (%d bytes)", len(got), want.Len())
	}
}

// TestInfoRefusesGob: info reads only columnar files and names the
// conversion for a gob one.
func TestInfoRefusesGob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(path, v1Image(t, countsStore(t), nil, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runInfo([]string{"-in", path}, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "emap-mdb convert") {
		t.Fatalf("info on a gob file: err = %v, want the convert hint", err)
	}
}

// TestBuildWritesColumnar: build writes a columnar file that info
// reads back.
func TestBuildWritesColumnar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mdb.snap")
	var out bytes.Buffer
	if err := runBuild([]string{"-per", "1", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("EMAPCOL2")) {
		t.Fatalf("build wrote %q…, not a columnar image", raw[:min(len(raw), 8)])
	}
	out.Reset()
	if err := runInfo([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"recordings:   5", "bytes/sample"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("info printed %q, missing %q", out.String(), want)
		}
	}
	if err := runBuild([]string{"-format", "gob"}, new(bytes.Buffer)); err == nil {
		t.Fatal("the removed -format flag was accepted")
	}
}
