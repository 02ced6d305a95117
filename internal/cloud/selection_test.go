package cloud

import (
	"bytes"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
)

// ingestedCopy returns a store holding built's recordings inserted as
// counts, the way a TypeIngest stores them.
func ingestedCopy(t *testing.T, built *mdb.Store) *mdb.Store {
	t.Helper()
	ingested := mdb.NewStore()
	for _, id := range built.RecordIDs() {
		rec, _ := built.Record(id)
		qv := rec.Quant()
		if _, err := ingested.InsertQuantized(&mdb.Record{ID: id, Class: rec.Class, Archetype: rec.Archetype},
			slices.Clone(qv.Counts), float32(qv.Scale), 1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	return ingested
}

// TestSelectionIsBuiltFromMatchesAlone: for a tenant built from
// recordings and one ingested as counts, a selection names, per match,
// the record's own counts from the matched offset — a full horizon, a
// horizon clipped at the record's end, nothing when less than a window
// is left — and its two readings, the encoded reply and the copied-out
// message, are one correlation set. Building it reads no sample, which
// is what the pin says: a 20-match selection is two allocations, the
// selection and its picks, where assembling 20 quantized continuations
// took 22 and ≈ 0.25 MB.
func TestSelectionIsBuiltFromMatchesAlone(t *testing.T) {
	built, _ := testStore(t)
	const windowLen, matches, horizon = 256, 20, 8 * 256
	for name, store := range map[string]*mdb.Store{"built": built, "ingested": ingestedCopy(t, built)} {
		srv, err := NewServer(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := srv.tenantFor("")
		if err != nil {
			t.Fatal(err)
		}
		// Matches spread over the sets, two offsets deep enough into the
		// last record's final set that the horizon is clipped, one so
		// deep that the entry is dropped.
		sets := store.Sets()
		res := &search.Result{}
		for i := 0; i < matches; i++ {
			set := sets[(i*7)%len(sets)]
			res.Matches = append(res.Matches, search.Match{SetID: set.ID, Omega: 0.9 - float64(i)/100, Beta: (i * 53) % set.Length})
		}
		last := sets[len(sets)-1]
		lastRec, _ := store.Record(last.RecordID)
		end := lastRec.Len() - last.Start
		res.Matches[3] = search.Match{SetID: last.ID, Omega: 0.95, Beta: end - 300}
		res.Matches[4] = search.Match{SetID: last.ID, Omega: 0.94, Beta: end - 100}
		sel := srv.selectEntries(tn, res, windowLen)
		if len(sel.picks) != matches-1 {
			t.Fatalf("%s: %d matches selected %d entries, want all but the one with 100 samples left", name, matches, len(sel.picks))
		}
		direct := sel.corrSet(5)
		for i, p := range sel.picks {
			m := res.Matches[i]
			if i >= 4 {
				m = res.Matches[i+1]
			}
			set := sets[m.SetID]
			rec, _ := store.Record(set.RecordID)
			if p.rec != rec || p.off != set.Start+m.Beta || p.n != min(horizon, rec.Len()-p.off) || p.n < windowLen {
				t.Fatalf("%s: pick %d is %d samples from %d, match %+v of a %d-sample record", name, i, p.n, p.off, m, rec.Len())
			}
			e := direct.Entries[i]
			if int(e.SetID) != m.SetID || e.Omega != float32(m.Omega) || int(e.Beta) != m.Beta || e.Anomalous != set.Anomalous ||
				e.Scale != float32(rec.Quant().Scale) || !slices.Equal(e.Samples, rec.Quant().Counts[p.off:p.off+p.n]) {
				t.Fatalf("%s: entry %d is not match %+v over its record's counts", name, i, m)
			}
		}
		if got := sel.picks[3].n; got != 300 {
			t.Fatalf("%s: the continuation 300 samples from the record's end carries %d", name, got)
		}
		reply := sel.encode(5)
		if !bytes.Equal(reply, proto.EncodeCorrSet(direct)) {
			t.Fatalf("%s: the encoded reply is not the encoding of the copied-out set", name)
		}
		proto.PutBuffer(reply)
		if n := testing.AllocsPerRun(10, func() { srv.selectEntries(tn, res, windowLen) }); n != 2 {
			t.Fatalf("%s: building a %d-match selection costs %.0f allocations, want 2", name, matches, n)
		}
	}
}

// TestSelectionOutlivesItsTenant: a selection holds records and a record
// holds the mapping its counts lie in, so a selection taken before its
// tenant is evicted — a cache hit whose reply is not yet encoded —
// encodes the same bytes after the eviction, two collections and the
// tenant's reopening from the same file, although by then neither the
// registry nor the engine refers to the store it was made over.
func TestSelectionOutlivesItsTenant(t *testing.T) {
	built, _ := testStore(t)
	dir := t.TempDir()
	if err := built.SaveFile(filepath.Join(dir, "ward.snap")); err != nil {
		t.Fatal(err)
	}
	reg, err := mdb.NewRegistry(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewRegistryServer(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts, scale := storedUpload(t, built)
	frame := proto.Frame{Version: proto.Version3, Type: proto.TypeUpload, Tenant: "ward",
		Payload: proto.EncodeUpload(&proto.Upload{Seq: 3, Scale: scale, Samples: counts})}
	typ, reply := srv.ServeFrame(frame)
	if typ != proto.TypeCorrSet || len(reply) <= 8 {
		t.Fatalf("reply type %d, %d bytes", typ, len(reply))
	}
	want := slices.Clone(reply)
	proto.PutBuffer(reply)

	// The hit in flight: the cached selection, taken as serveUpload takes
	// it, and nothing else of the tenant.
	sel := func() *selection {
		tn, err := srv.tenantFor("ward")
		if err != nil {
			t.Fatal(err)
		}
		if tn.store.TierStats().ColdBytes == 0 {
			t.Fatal("the tenant is not served from a mapping; the test would prove nothing")
		}
		key, _ := appendFingerprint(nil, counts, scale)
		sel, _, ok := tn.cache.get(key)
		if !ok {
			t.Fatal("the miss did not fill the cache")
		}
		return sel
	}()
	if err := reg.Evict("ward"); err != nil {
		t.Fatal(err)
	}
	if len(srv.Tenants()) != 0 {
		t.Fatal("eviction left the tenant's serving state behind")
	}
	runtime.GC()
	runtime.GC()
	got := sel.encode(3)
	if !bytes.Equal(got, want) {
		t.Fatal("a selection encoded after its tenant's eviction differs from the reply before it")
	}
	// And the reopened tenant, a new mapping of the same file, answers
	// the same bytes from a miss.
	if _, again := srv.ServeFrame(frame); !bytes.Equal(again, want) {
		t.Fatal("the reopened tenant answers differently")
	}
	if hits := srv.Metrics.CacheHits.Load(); hits != 0 {
		t.Fatalf("%d cache hits: the reopened tenant kept a cache from before its eviction", hits)
	}
}
