package mdb

import (
	"bytes"
	"testing"
)

// FuzzLoadColumnar drives the eager columnar parser with corrupted,
// truncated and outright hostile images. The contract under fuzzing:
// the parser either returns a store or an error — it never panics
// (slice bounds, division, unsafe aliasing) and never allocates
// beyond a small multiple of the input size (every table length is
// cross-checked against len(data) before allocation). A store that
// does decode must hold internally consistent views.
func FuzzLoadColumnar(f *testing.F) {
	// Seed corpus: a real snapshot (mixed record lengths, labelled
	// sets), a single-record snapshot, an empty store, and a few
	// deterministic mutations of the real one so the fuzzer starts at
	// interesting boundaries.
	real := encodeStore(f, buildQuantStore(f, []int{1280, 1000, 2049}))
	f.Add(real)
	f.Add(encodeStore(f, buildQuantStore(f, []int{64})))
	f.Add(encodeStore(f, NewStore()))
	for _, cut := range []int{8, headerSize, len(real) / 2, len(real) - 4} {
		f.Add(append([]byte(nil), real[:cut]...))
	}
	for _, pos := range []int{12, 16, 24, 40, headerSize + 3, len(real) - 30} {
		mut := append([]byte(nil), real...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte("EMAPCOL2garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadColumnar(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded stores must be safe to walk end to end.
		snap := s.Snapshot()
		total := 0
		for _, id := range snap.RecordIDs() {
			rec, ok := snap.Record(id)
			if !ok {
				t.Fatalf("listed record %q not retrievable", id)
			}
			qv := rec.Quant()
			if sum, sumSq := qv.WindowSums(0, rec.Len()); sumSq < 0 {
				t.Fatalf("record %q has negative Σc² (%d, %d)", id, sum, sumSq)
			}
			total += rec.Len()
		}
		if total != snap.TotalSamples() {
			t.Fatalf("TotalSamples %d, records sum to %d", snap.TotalSamples(), total)
		}
		for _, set := range snap.Sets() {
			if _, ok := snap.Window(set, 0, set.Length); !ok {
				t.Fatalf("set %d window [0,%d) unreadable", set.ID, set.Length)
			}
		}
	})
}
