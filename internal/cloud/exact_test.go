// The exactness oracle for replies. It lives outside the package so that
// everything it knows about a store it learns the way any client of
// internal/mdb would: a reply is judged against Record.Quant and
// Snapshot.Window, not against the serving path's own helpers.
package cloud_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
)

const (
	windowLen = 256
	horizon   = 8 * 256 // Config's defaults: 8 s at 256 Hz
)

func builtStore(t *testing.T) *mdb.Store {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 24, ArchetypesPerClass: 2})
	var recs []*synth.Recording
	for arch := 0; arch < 2; arch++ {
		for i := 0; i < 3; i++ {
			recs = append(recs, g.Instance(synth.Normal, arch, synth.InstanceOpts{OffsetSamples: i * 5000, DurSeconds: 40}))
		}
		recs = append(recs, g.Instance(synth.Seizure, arch, synth.InstanceOpts{DurSeconds: 40}))
	}
	store, err := mdb.Build(recs, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// uploads cuts n one-second windows out of the corpus — so that each
// retrieves something — every third from the last two seconds of a
// recording, where a continuation is clipped.
func uploads(t *testing.T, corpus *mdb.Store, r *rand.Rand, n int) []*proto.Upload {
	t.Helper()
	snap := corpus.Snapshot()
	sets := snap.Sets()
	out := make([]*proto.Upload, n)
	for i := range out {
		set := sets[r.Intn(len(sets))]
		rec, _ := snap.Record(set.RecordID)
		off := r.Intn(set.Length - windowLen + 1)
		if i%3 == 0 {
			off = rec.Len() - set.Start - windowLen - r.Intn(windowLen)
		}
		w, ok := snap.Window(set, off, windowLen)
		if !ok {
			t.Fatalf("no window at %d of set %d", off, set.ID)
		}
		counts, scale := proto.Quantize(w)
		out[i] = &proto.Upload{Seq: uint32(1000 + i), Scale: scale, Samples: counts}
	}
	return out
}

// serve answers up through the engine's wire surface.
func serve(t *testing.T, srv *cloud.Server, tenant string, up *proto.Upload) []byte {
	t.Helper()
	typ, payload := srv.ServeFrame(proto.Frame{Version: proto.Version3, Type: proto.TypeUpload, Tenant: tenant, Payload: proto.EncodeUpload(up)})
	if typ != proto.TypeCorrSet {
		t.Fatalf("reply type %d: %s", typ, payload)
	}
	return payload
}

// checkExact holds every reply to the store: the wire payload and the
// direct answer are one correlation set, and that set is, entry for
// entry, Algorithm 1's matches over the store's own counts. It returns
// how many entries it checked and how many of them were clipped.
func checkExact(t *testing.T, srv *cloud.Server, tenant string, store *mdb.Store, ups []*proto.Upload) (entries, clipped int) {
	t.Helper()
	snap := store.Snapshot()
	sets := snap.Sets()
	searcher := search.NewSearcher(store, search.Params{})
	for _, up := range ups {
		payload := serve(t, srv, tenant, up)
		wire, err := proto.DecodeCorrSet(payload)
		if err != nil {
			t.Fatal(err)
		}
		again := *up
		again.Seq = ^up.Seq
		direct, err := srv.SearchTenant(tenant, &again)
		if err != nil {
			t.Fatal(err)
		}
		if wire.Seq != up.Seq || direct.Seq != again.Seq {
			t.Fatalf("upload %d: Seq %d on the wire, %d direct", up.Seq, wire.Seq, direct.Seq)
		}
		if !bytes.Equal(payload[4:], proto.EncodeCorrSet(direct)[4:]) {
			t.Fatalf("upload %d: the wire payload is not the encoding of the direct answer", up.Seq)
		}
		res, err := searcher.Algorithm1Counts(search.Counts{Samples: up.Samples, Scale: up.Scale})
		if err != nil {
			t.Fatal(err)
		}
		got := wire.Entries
		for _, m := range res.Matches {
			set := sets[m.SetID]
			rec, ok := snap.Record(set.RecordID)
			if !ok {
				t.Fatalf("match in set %d of no record", m.SetID)
			}
			qv := rec.Quant()
			off := set.Start + m.Beta
			n := min(horizon, rec.Len()-off)
			if n < windowLen {
				continue // dropped: exactly the matches with less than a window left
			}
			if len(got) == 0 {
				t.Fatalf("upload %d: the reply ends before match %+v", up.Seq, m)
			}
			e := got[0]
			got = got[1:]
			if int(e.SetID) != m.SetID || e.Omega != float32(m.Omega) || int(e.Beta) != m.Beta ||
				e.Anomalous != set.Anomalous || e.Class != uint8(set.Class) || e.Archetype != uint16(set.Archetype) {
				t.Fatalf("upload %d: entry %+v for match %+v of set %+v", up.Seq, e, m, set)
			}
			if e.Scale != float32(qv.Scale) || float64(e.Scale) != qv.Scale {
				t.Fatalf("upload %d set %d: scale %v, the record's is %v", up.Seq, m.SetID, e.Scale, qv.Scale)
			}
			if !slices.Equal(e.Samples, qv.Counts[off:off+n]) {
				t.Fatalf("upload %d set %d: %d samples that are not the record's counts [%d:%d]", up.Seq, m.SetID, len(e.Samples), off, off+n)
			}
			want, ok := snap.Window(set, m.Beta, n)
			if !ok || !slices.Equal(proto.Dequantize(e.Samples, e.Scale), want) {
				t.Fatalf("upload %d set %d: the entry dequantizes to other µV than the store's window", up.Seq, m.SetID)
			}
			entries++
			if n < horizon {
				clipped++
			}
		}
		if len(got) != 0 {
			t.Fatalf("upload %d: %d entries beyond the store's matches", up.Seq, len(got))
		}
	}
	return entries, clipped
}

// TestRepliesAreTheStoresCounts: whatever a tenant's records are made
// of — float recordings quantized at build, counts as an edge pushed
// them, a columnar snapshot read in place, heap copies promoted under a
// byte budget, the mapping again once the budget shrinks — every reply
// sample is a count of the store and every scale a record's own: no
// tolerance anywhere in checkExact.
func TestRepliesAreTheStoresCounts(t *testing.T) {
	built := builtStore(t)
	r := rand.New(rand.NewSource(24))
	check := func(t *testing.T, srv *cloud.Server, tenant string, store *mdb.Store) {
		t.Helper()
		entries, clipped := checkExact(t, srv, tenant, store, uploads(t, built, r, 12))
		if entries < 12 || clipped == 0 || clipped == entries {
			t.Fatalf("%d entries checked, %d clipped: the windows do not cover full and clipped continuations", entries, clipped)
		}
	}

	t.Run("built", func(t *testing.T) {
		srv, err := cloud.NewServer(built, cloud.Config{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, srv, "", built)
	})

	// The same recordings pushed as counts over the ingest surface.
	ingestedSrv, err := cloud.NewServer(nil, cloud.Config{StoreFormat: mdb.FormatColumnar})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range built.RecordIDs() {
		rec, _ := built.Record(id)
		qv := rec.Quant()
		if _, err := ingestedSrv.Ingest("", &proto.Ingest{Seq: uint32(i), RecordID: id, Class: uint8(rec.Class), Archetype: uint16(rec.Archetype),
			Onset: int32(rec.Onset), Scale: float32(qv.Scale), Samples: slices.Clone(qv.Counts)}); err != nil {
			t.Fatal(err)
		}
	}
	ingested, ok := ingestedSrv.Registry().Get(cloud.DefaultTenant)
	if !ok {
		t.Fatal("no default tenant after ingest")
	}
	t.Run("ingested", func(t *testing.T) { check(t, ingestedSrv, "", ingested) })

	// A hit is the same bytes as the miss that filled the cache; an
	// ingest in between makes the next one a miss again, answered from
	// the grown store.
	t.Run("hit-then-ingest", func(t *testing.T) {
		up := uploads(t, built, r, 1)[0]
		m := &ingestedSrv.Metrics
		miss := slices.Clone(serve(t, ingestedSrv, "", up))
		hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
		if hit := serve(t, ingestedSrv, "", up); !bytes.Equal(hit, miss) || m.CacheHits.Load() != hits+1 {
			t.Fatalf("the repeat was not a byte-identical hit (hits %d → %d)", hits, m.CacheHits.Load())
		}
		// The window's own recording again under another name: the
		// grown store must retrieve it too.
		if _, err := ingestedSrv.Ingest("", &proto.Ingest{RecordID: "late", Onset: -1, Scale: up.Scale, Samples: slices.Repeat(up.Samples, 8)}); err != nil {
			t.Fatal(err)
		}
		after := serve(t, ingestedSrv, "", up)
		if m.CacheMisses.Load() != misses+1 {
			t.Fatal("a lookup after an ingest hit the cache")
		}
		if bytes.Equal(after, miss) {
			t.Fatal("the reply after the ingest does not show the ingested recording")
		}
		checkExact(t, ingestedSrv, "", ingested, []*proto.Upload{up})
	})

	// Its columnar snapshot, served from the file.
	dir := t.TempDir()
	if err := ingested.Snapshot().SaveFileFormat(filepath.Join(dir, "ward.snap"), mdb.FormatColumnar); err != nil {
		t.Fatal(err)
	}
	reg, err := mdb.NewRegistry(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldSrv, err := cloud.NewRegistryServer(reg, cloud.Config{StoreFormat: mdb.FormatColumnar})
	if err != nil {
		t.Fatal(err)
	}
	probe := uploads(t, built, r, 1)[0]
	first := slices.Clone(serve(t, coldSrv, "ward", probe))
	cold, ok := reg.Get("ward")
	if !ok {
		t.Fatal("tenant not resident after a request")
	}
	if cold.TierStats().ColdBytes == 0 {
		t.Skip("snapshots are not memory-mapped on this platform")
	}
	hitAgain := func(t *testing.T, when string) {
		t.Helper()
		hits := coldSrv.Metrics.CacheHits.Load()
		if got := serve(t, coldSrv, "ward", probe); !bytes.Equal(got, first) || coldSrv.Metrics.CacheHits.Load() != hits+1 {
			t.Fatalf("%s: the cached selection no longer encodes the bytes of the first reply", when)
		}
	}
	t.Run("cold", func(t *testing.T) {
		check(t, coldSrv, "ward", cold)
		if ts := cold.TierStats(); ts.Promotions != 0 || ts.WarmBytes != 0 {
			t.Fatalf("with no budget, %d promotions and %d warm bytes", ts.Promotions, ts.WarmBytes)
		}
		hitAgain(t, "cold")
	})
	t.Run("promoted", func(t *testing.T) {
		cold.SetTierBudget(1 << 30)
		check(t, coldSrv, "ward", cold) // scans promote what they touch
		if ts := cold.TierStats(); ts.Promotions == 0 || ts.ColdBytes != 0 {
			t.Fatalf("under a generous budget: %d promotions, %d bytes still cold", ts.Promotions, ts.ColdBytes)
		}
		check(t, coldSrv, "ward", cold)
		hitAgain(t, "after promotion")
	})
	t.Run("demoted", func(t *testing.T) {
		cold.SetTierBudget(1)
		if ts := cold.TierStats(); ts.Demotions == 0 || ts.WarmBytes != 0 {
			t.Fatalf("after the budget shrank: %d demotions, %d bytes still warm", ts.Demotions, ts.WarmBytes)
		}
		check(t, coldSrv, "ward", cold)
		hitAgain(t, "after demotion")
	})
}
