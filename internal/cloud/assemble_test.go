package cloud

import (
	"reflect"
	"testing"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
)

// windowPerMatch is assembleEntries as it was before it reused its
// dequantization buffer and sized its reply once: a fresh
// Snapshot.Window for every match, the entries grown by append.
func windowPerMatch(e *Engine, t *tenant, res *search.Result, windowLen int) []proto.CorrEntry {
	horizon := int(e.cfg.HorizonSeconds * e.cfg.BaseRate)
	snap := t.store.Snapshot()
	sets := snap.Sets()
	var entries []proto.CorrEntry
	for _, m := range res.Matches {
		set := sets[m.SetID]
		rec, _ := snap.Record(set.RecordID)
		n := min(horizon, rec.Len()-(set.Start+m.Beta))
		if n < windowLen {
			continue
		}
		samples, _ := snap.Window(set, m.Beta, n)
		counts, scale := proto.Quantize(samples)
		entries = append(entries, proto.CorrEntry{SetID: int32(m.SetID), Omega: float32(m.Omega), Beta: int32(m.Beta),
			Anomalous: set.Anomalous, Class: uint8(set.Class), Archetype: uint16(set.Archetype), Scale: scale, Samples: counts})
	}
	return entries
}

// TestAssembleEntriesReusesOneWindow: for a tenant built from
// recordings and one ingested as counts (continuations are dequantized
// either way), assembleEntries returns entry for entry what a fresh
// window per match gives — full horizons and horizons clipped at the
// record end — and a 20-match assembly allocates once per entry (its
// counts), once for the entries, sized from the matches, and once for
// the one dequantization buffer: where a window per match and a reply
// grown by doubling cost five allocations more and another entries − 1.
func TestAssembleEntriesReusesOneWindow(t *testing.T) {
	built, _ := testStore(t)
	ingested := mdb.NewQuantizedStore()
	for _, id := range built.RecordIDs() {
		rec, _ := built.Record(id)
		qv := rec.Quant()
		if _, err := ingested.InsertQuantized(&mdb.Record{ID: id, Class: rec.Class, Archetype: rec.Archetype},
			append([]int16(nil), qv.Counts...), float32(qv.Scale), 1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	const windowLen, matches = 256, 20
	for name, store := range map[string]*mdb.Store{"built": built, "ingested": ingested} {
		srv, err := NewServer(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := srv.tenantFor("")
		if err != nil {
			t.Fatal(err)
		}
		// Matches spread over the sets, the last offsets deep enough into
		// each record's final set that the horizon is clipped, one so
		// deep that the entry is dropped.
		sets := store.Sets()
		res := &search.Result{}
		for i := 0; i < matches; i++ {
			set := sets[(i*7)%len(sets)]
			res.Matches = append(res.Matches, search.Match{SetID: set.ID, Omega: 0.9 - float64(i)/100, Beta: (i * 53) % set.Length})
		}
		last := sets[len(sets)-1]
		res.Matches[3] = search.Match{SetID: last.ID, Omega: 0.95, Beta: last.Length - 300}
		res.Matches[4] = search.Match{SetID: last.ID, Omega: 0.94, Beta: last.Length - 100}
		got, want := srv.assembleEntries(tn, res, windowLen), windowPerMatch(srv.Engine, tn, res, windowLen)
		if len(got) < matches-3 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: assembly of %d matches gave %d entries, a window per match %d; equal = %v", name, matches, len(got), len(want), reflect.DeepEqual(got, want))
		}
		reused := testing.AllocsPerRun(10, func() { srv.assembleEntries(tn, res, windowLen) })
		fresh := testing.AllocsPerRun(10, func() { windowPerMatch(srv.Engine, tn, res, windowLen) })
		// 19 entries by doubling — 1, 2, 4, 8, 16, 32 — and a window each.
		pinned, saved := float64(len(got)+2), 5+float64(len(got)-1)
		if reused != pinned || reused != fresh-saved {
			t.Fatalf("%s: %d entries cost %.0f allocations (want %.0f), a window per match %.0f (want %.0f more)", name, len(got), reused, pinned, fresh, saved)
		}
	}
}
