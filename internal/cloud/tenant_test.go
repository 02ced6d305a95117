package cloud

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"testing"
	"time"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// registryServer builds a server over a fresh in-memory registry with
// two pre-seeded tenants holding distinct stores.
func registryServer(t testing.TB, cfg Config) (*Server, *synth.Generator) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 71, ArchetypesPerClass: 2})
	reg, err := mdb.NewRegistry("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tenantID := range []string{"alice", "bob"} {
		var recs []*synth.Recording
		for i := 0; i < 3; i++ {
			recs = append(recs, g.Instance(synth.Normal, ti, synth.InstanceOpts{
				OffsetSamples: i * 5000, DurSeconds: 60}))
		}
		store, err := mdb.Build(recs, mdb.DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Adopt(tenantID, store); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewRegistryServer(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, g
}

// v3Exchange writes one frame and reads one reply frame.
func v3Exchange(t *testing.T, conn net.Conn, typ proto.MsgType, id uint32, tenant string, payload []byte) proto.Frame {
	t.Helper()
	if err := proto.NewFrameWriter(conn).WriteFrame(typ, id, tenant, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := proto.ReadFrameAny(conn)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestV3RoutesByTenant: one connection, requests alternating between
// two tenants; each reply must mirror the request's tenant and the
// per-tenant metrics must count exactly their own traffic.
func TestV3RoutesByTenant(t *testing.T) {
	srv, g := registryServer(t, Config{CacheSize: -1})
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	for i, tenant := range []string{"alice", "bob", "alice"} {
		f := v3Exchange(t, cConn, proto.TypeUpload, uint32(10+i), tenant, uploadFrom(t, window, uint32(10+i)))
		if f.Type != proto.TypeCorrSet {
			t.Fatalf("reply type %d", f.Type)
		}
		if f.Version != proto.Version3 || f.Tenant != tenant || f.ID != uint32(10+i) {
			t.Fatalf("reply does not mirror request: %+v", f)
		}
	}
	am, bm := srv.MetricsFor("alice"), srv.MetricsFor("bob")
	if am == nil || bm == nil {
		t.Fatal("per-tenant metrics missing")
	}
	if am.Requests.Load() != 2 || bm.Requests.Load() != 1 {
		t.Fatalf("tenant request counts: alice %d, bob %d", am.Requests.Load(), bm.Requests.Load())
	}
	if srv.Metrics.Requests.Load() != 3 {
		t.Fatalf("registry-wide requests = %d", srv.Metrics.Requests.Load())
	}
}

// TestTenantCacheIsolation: the same window uploaded to two tenants
// must never share cache entries — tenant B's first upload is a miss
// even though tenant A has the answer cached.
func TestTenantCacheIsolation(t *testing.T) {
	srv, g := registryServer(t, Config{})
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	for i, tenant := range []string{"alice", "alice", "bob", "bob"} {
		f := v3Exchange(t, cConn, proto.TypeUpload, uint32(i+1), tenant, uploadFrom(t, window, uint32(i+1)))
		if f.Type != proto.TypeCorrSet {
			t.Fatalf("upload %d: reply type %d", i, f.Type)
		}
	}
	am, bm := srv.MetricsFor("alice"), srv.MetricsFor("bob")
	if am.CacheMisses.Load() != 1 || am.CacheHits.Load() != 1 {
		t.Fatalf("alice cache: %d misses / %d hits, want 1/1",
			am.CacheMisses.Load(), am.CacheHits.Load())
	}
	if bm.CacheMisses.Load() != 1 || bm.CacheHits.Load() != 1 {
		t.Fatalf("bob cache: %d misses / %d hits, want 1/1 (first bob upload must not hit alice's cache)",
			bm.CacheMisses.Load(), bm.CacheHits.Load())
	}
}

// TestIngestGrowsSearchableStore: a tenant starts empty, searches get
// empty sets, an ingest makes the recording retrievable immediately.
func TestIngestGrowsSearchableStore(t *testing.T) {
	srv, err := NewServer(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	g := synth.NewGenerator(synth.Config{Seed: 5, ArchetypesPerClass: 1})
	rec := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 40, NoArtifacts: true})
	proc, err := mdb.Preprocess(rec, mdb.DefaultBuildConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	window := proc.Samples[2048:2304]

	// 1: empty store answers with an empty correlation set.
	f := v3Exchange(t, cConn, proto.TypeUpload, 1, "", uploadFrom(t, window, 1))
	if f.Type != proto.TypeCorrSet {
		t.Fatalf("empty-store reply type %d", f.Type)
	}
	cs, err := proto.DecodeCorrSet(f.Payload)
	if err != nil || len(cs.Entries) != 0 {
		t.Fatalf("empty store returned %d entries (%v)", len(cs.Entries), err)
	}

	// 2: ingest the recording.
	counts, scale := proto.Quantize(proc.Samples)
	ingPayload := proto.EncodeIngest(&proto.Ingest{
		Seq: 2, RecordID: "live-1", Onset: -1, Scale: scale, Samples: counts})
	f = v3Exchange(t, cConn, proto.TypeIngest, 2, "", ingPayload)
	if f.Type != proto.TypeIngestAck {
		t.Fatalf("ingest reply type %d", f.Type)
	}
	ack, err := proto.DecodeIngestAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Sets == 0 || ack.TotalSets != ack.Sets || ack.TotalRecords != 1 {
		t.Fatalf("ack: %+v", ack)
	}

	// 3: the same window now retrieves the ingested recording.
	f = v3Exchange(t, cConn, proto.TypeUpload, 3, "", uploadFrom(t, window, 3))
	cs, err = proto.DecodeCorrSet(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Entries) == 0 {
		t.Fatal("ingested recording not retrievable")
	}
	// A duplicate record ID must be refused.
	f = v3Exchange(t, cConn, proto.TypeIngest, 4, "", ingPayload)
	if f.Type != proto.TypeError {
		t.Fatalf("duplicate ingest reply type %d", f.Type)
	}
	if m := srv.MetricsFor(""); m.Ingests.Load() != 1 || m.IngestedSets.Load() != int64(ack.Sets) {
		t.Fatalf("ingest metrics: %d ingests, %d sets", m.Ingests.Load(), m.IngestedSets.Load())
	}
}

// TestLegacyVersionsLandOnDefaultTenant: an upload with an empty tenant
// field is served from the default tenant's store, and a frame in the
// retired version-1 or version-2 layout is refused — the connection
// closes, the handler never sees the frame and Errors counts it once.
func TestLegacyVersionsLandOnDefaultTenant(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	if f := v3Exchange(t, cConn, proto.TypeUpload, 1, "", uploadFrom(t, window, 1)); f.Type != proto.TypeCorrSet || f.Tenant != "" {
		t.Fatalf("tenant-less reply: type %d tenant %q", f.Type, f.Tenant)
	}
	if m := srv.MetricsFor(DefaultTenant); m == nil || m.Requests.Load() != 1 {
		t.Fatalf("default tenant requests = %v", m)
	}

	payload := uploadFrom(t, window, 2)
	for _, version := range []uint8{1, 2} {
		// The header as a v1 or v2 writer laid it out: the v2 request
		// ID, then the length, payload and CRC.
		frame := binary.LittleEndian.AppendUint16(nil, proto.Magic)
		frame = append(frame, version, byte(proto.TypeUpload))
		if version == 2 {
			frame = binary.LittleEndian.AppendUint32(frame, 2)
		}
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
		frame = append(frame, payload...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))

		h := &gateHandler{}
		m := &Metrics{}
		tr := NewTransport(h, TransportConfig{Metrics: m})
		cConn, sConn := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			tr.HandleConn(sConn)
		}()
		// The server refuses the frame on its header and closes the
		// pipe, which may fail the rest of this write.
		cConn.Write(frame)
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatalf("v%d frame: connection not closed", version)
		}
		cConn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := cConn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("v%d frame: connection still open", version)
		}
		if h.peak.Load() != 0 {
			t.Fatalf("v%d frame reached the handler", version)
		}
		if e := m.Errors.Load(); e != 1 {
			t.Fatalf("v%d frame: %d errors counted, want 1", version, e)
		}
		cConn.Close()
	}
}

// TestInvalidTenantRejected: a request naming an invalid tenant must
// fail with an error frame, not open a store.
func TestInvalidTenantRejected(t *testing.T) {
	srv, _ := registryServer(t, Config{})
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)
	f := v3Exchange(t, cConn, proto.TypeUpload, 1, "no/such tenant", uploadFrom(t, make([]float64, 256), 1))
	if f.Type != proto.TypeError {
		t.Fatalf("reply type %d, want error", f.Type)
	}
	em, err := proto.DecodeError(f.Payload)
	if err != nil || em.Code != 404 {
		t.Fatalf("error reply: %+v, %v", em, err)
	}
}

// TestConcurrentIngestAndSearchOneTenant drives the acceptance
// criterion over the wire: one tenant store ingests live while several
// pipelined connections search it, race-clean and error-free.
func TestConcurrentIngestAndSearchOneTenant(t *testing.T) {
	srv, err := NewServer(nil, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	g := synth.NewGenerator(synth.Config{Seed: 13, ArchetypesPerClass: 2})
	mkProc := func(i int) *mdb.Record {
		rec := g.Instance(synth.Normal, i%2, synth.InstanceOpts{
			OffsetSamples: i * 2000, DurSeconds: 20})
		proc, err := mdb.Preprocess(rec, mdb.DefaultBuildConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		proc.ID = fmt.Sprintf("live-%d", i)
		return proc
	}
	first := mkProc(0)
	window := first.Samples[1024:1280]

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // ingest connection
		defer wg.Done()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		for i := 0; i < 10; i++ {
			proc := first
			if i > 0 {
				proc = mkProc(i)
			}
			counts, scale := proto.Quantize(proc.Samples)
			payload := proto.EncodeIngest(&proto.Ingest{
				RecordID: proc.ID, Onset: -1, Scale: scale, Samples: counts})
			if err := proto.NewFrameWriter(conn).WriteFrame(proto.TypeIngest, uint32(i+1), "", payload); err != nil {
				t.Error(err)
				return
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			f, err := proto.ReadFrameAny(conn)
			if err != nil || f.Type != proto.TypeIngestAck {
				t.Errorf("ingest %d: %v (type %v)", i, err, f.Type)
				return
			}
		}
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) { // search connections
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := 0; i < 15; i++ {
				id := uint32(100*c + i)
				if err := proto.NewFrameWriter(conn).WriteFrame(proto.TypeUpload, id, "", uploadFrom(t, window, id)); err != nil {
					t.Error(err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				f, err := proto.ReadFrameAny(conn)
				if err != nil || f.Type != proto.TypeCorrSet {
					t.Errorf("search %d/%d: %v (type %v)", c, i, err, f.Type)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if e := srv.Metrics.Errors.Load(); e != 0 {
		t.Fatalf("server recorded %d errors", e)
	}
	// The store grew while being searched, and a final search sees it.
	counts, scale := proto.Quantize(window)
	cs, err := srv.Search(&proto.Upload{Seq: 1, Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Entries) == 0 {
		t.Fatal("ingested recordings not retrievable after the run")
	}
	if m := srv.MetricsFor(""); m.Ingests.Load() != 10 {
		t.Fatalf("ingests = %d", m.Ingests.Load())
	}
}
