package cloud

import (
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// ingestFor builds a deterministic preprocessed recording of n samples
// as a wire ingest.
func ingestFor(id string, seq uint32, n int) *proto.Ingest {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = 40*math.Sin(2*math.Pi*float64(i)/97) + 10*math.Sin(2*math.Pi*float64(i)/13+float64(seq))
	}
	counts, scale := proto.Quantize(samples)
	return &proto.Ingest{Seq: seq, RecordID: id, Onset: -1, Scale: scale, Samples: counts}
}

// TestPanicIsolation is the poisoned-request regression test: a
// handler panic must fail exactly that request with a 5xx-class error
// and leave the connection and worker pool serving.
func TestPanicIsolation(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.searchHook = func(u *proto.Upload) {
		if u.Seq == 13 {
			panic("poisoned request")
		}
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]

	f := v3Exchange(t, cConn, proto.TypeUpload, 1, "", uploadFrom(t, window, 13))
	if f.Type != proto.TypeError {
		t.Fatalf("poisoned request reply type %d, want error", f.Type)
	}
	em, err := proto.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if em.Code < 500 || em.Code > 599 {
		t.Fatalf("poisoned request error code %d, want 5xx", em.Code)
	}
	if got := srv.Metrics.Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	// The same connection keeps serving.
	f = v3Exchange(t, cConn, proto.TypeUpload, 2, "", uploadFrom(t, window, 2))
	if f.Type != proto.TypeCorrSet {
		t.Fatalf("post-panic request reply type %d, want corrset", f.Type)
	}
	if got := srv.Metrics.Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d after healthy request, want 1", got)
	}
}

// TestBatchLeaderPanicFailsBatchOnly: a panic inside the batched
// search path (here: a nil searcher) must not strand joiners on the
// group's done channel — every member gets a 5xx and the engine keeps
// serving other tenants.
func TestBatchLeaderPanicFailsBatchOnly(t *testing.T) {
	srv, err := NewServer(nil, Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := srv.tenantFor("poisoned")
	if err != nil {
		t.Fatal(err)
	}
	poisoned.searcher = nil // any search through the collector panics

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)
	window := make([]float64, 256)
	f := v3Exchange(t, cConn, proto.TypeUpload, 1, "poisoned", uploadFrom(t, window, 1))
	if f.Type != proto.TypeError {
		t.Fatalf("panicked batch reply type %d, want error", f.Type)
	}
	if got := srv.Metrics.Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	// Other tenants are untouched.
	f = v3Exchange(t, cConn, proto.TypeUpload, 2, "healthy", uploadFrom(t, window, 2))
	if f.Type != proto.TypeCorrSet {
		t.Fatalf("healthy tenant reply type %d, want corrset", f.Type)
	}
}

// TestIdleTimeoutReapsStalledConn: with Config.IdleTimeout set, a
// half-open connection that sends nothing is reaped while an active
// peer on the same server keeps exchanging frames.
func TestIdleTimeoutReapsStalledConn(t *testing.T) {
	store, _ := testStore(t)
	// The active peer pings every 50 ms against a 400 ms idle timeout:
	// an 8× margin, so a -race run on a loaded box does not reap it.
	srv, err := NewServer(store, Config{IdleTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stalled, stalledSrv := net.Pipe()
	defer stalled.Close()
	go srv.HandleConn(stalledSrv)
	active, activeSrv := net.Pipe()
	defer active.Close()
	go srv.HandleConn(activeSrv)

	// Keep the active connection chatty past several idle windows.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		f := v3Exchange(t, active, proto.TypePing, 7, "", nil)
		if f.Type != proto.TypePong {
			t.Fatalf("active ping reply type %d", f.Type)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The stalled peer must have been reaped by now: its end of the
	// pipe reads an error promptly.
	stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := stalled.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection still open after idle timeout")
	}
	if got := srv.Metrics.IdleReaped.Load(); got != 1 {
		t.Fatalf("IdleReaped = %d, want 1", got)
	}
	// The active peer is undisturbed.
	f := v3Exchange(t, active, proto.TypePing, 8, "", nil)
	if f.Type != proto.TypePong {
		t.Fatalf("active conn disturbed by reap: reply type %d", f.Type)
	}
}

// TestIngestWALSurvivesRestart: acked ingests against a WAL-enabled
// server are present after abandoning the process without any registry
// close — the basic crash-recovery property on the real filesystem.
func TestIngestWALSurvivesRestart(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	mk := func() *Server {
		reg, err := mdb.NewRegistry(snapDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewRegistryServer(reg, Config{WALDir: walDir, SliceLen: 256})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := mk()
	for i := uint32(0); i < 3; i++ {
		ack, err := srv.Ingest("ward-a", ingestFor(recID(i), i, 1024))
		if err != nil {
			t.Fatal(err)
		}
		if ack.Sets == 0 {
			t.Fatalf("ingest %d created no sets", i)
		}
	}
	srv.Close() // transport only — the registry is never closed (the crash)

	srv2 := mk()
	defer srv2.Close()
	store, err := srv2.Registry().Open("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 3; i++ {
		if _, ok := store.Record(recID(i)); !ok {
			t.Fatalf("acked ingest %s lost across restart", recID(i))
		}
	}
}

func recID(i uint32) string {
	return "crash-rec-" + string(rune('a'+i))
}

// TestPersistErrorsMetric: a failed eviction-time persist must count on
// the cloud metric (via the registry's OnPersistError hook) and keep
// the tenant resident.
func TestPersistErrorsMetric(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	reg, err := mdb.NewRegistry(snapDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewRegistryServer(reg, Config{SliceLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingest("ward-a", ingestFor("rec-a", 1, 1024)); err != nil {
		t.Fatal(err)
	}
	// Replace the snapshot directory with a file so the persist fails.
	if err := os.RemoveAll(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Evict("ward-a"); err == nil {
		t.Fatal("eviction persisted into a broken directory")
	}
	if got := srv.Metrics.PersistErrors.Load(); got != 1 {
		t.Fatalf("PersistErrors = %d, want 1", got)
	}
	if _, ok := reg.Get("ward-a"); !ok {
		t.Fatal("failed persist lost the tenant")
	}
}
