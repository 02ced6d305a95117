package mdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"emap/internal/iofault"
	"emap/internal/wal"
)

// walApplyByID is the test Apply: the payload IS the record ID, and —
// as the contract requires — an already-present ID is a no-op, so a
// checkpoint that crashed pre-rename replays cleanly.
func walApplyByID(s *Store, p []byte) error {
	id := string(p)
	if _, ok := s.Record(id); ok {
		return nil
	}
	_, err := s.Insert(&Record{ID: id, Samples: make([]float64, 64)}, 64, nil)
	return err
}

// newWALRegistry builds a registry over snapDir (possibly "") with a
// WAL in walDir.
func newWALRegistry(t *testing.T, snapDir, walDir string, max int) *Registry {
	t.Helper()
	r, err := NewRegistry(snapDir, max)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableWAL(WALConfig{Dir: walDir, Apply: walApplyByID}); err != nil {
		t.Fatal(err)
	}
	return r
}

// walIngest journals then inserts one record, the engine's append-
// before-insert order.
func walIngest(t *testing.T, r *Registry, tenant, id string) {
	t.Helper()
	if err := r.AppendWAL(tenant, []byte(id)); err != nil {
		t.Fatalf("AppendWAL(%s): %v", id, err)
	}
	s, ok := r.Get(tenant)
	if !ok {
		t.Fatalf("tenant %s not resident", tenant)
	}
	if _, err := s.Insert(&Record{ID: id, Samples: make([]float64, 64)}, 64, nil); err != nil {
		t.Fatalf("Insert(%s): %v", id, err)
	}
}

// TestRegistryWALReplayAfterCrash abandons a registry without Close —
// the kill -9 — and proves a fresh registry over the same directories
// recovers every journaled ingest from the WAL alone.
func TestRegistryWALReplayAfterCrash(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	r := newWALRegistry(t, snapDir, walDir, 0)
	if _, err := r.Open("ward-a"); err != nil {
		t.Fatal(err)
	}
	ids := []string{"rec-0", "rec-1", "rec-2"}
	for _, id := range ids {
		walIngest(t, r, "ward-a", id)
	}
	// No Close: the snapshot was never written, only the WAL.

	r2 := newWALRegistry(t, snapDir, walDir, 0)
	s, err := r2.Open("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, ok := s.Record(id); !ok {
			t.Fatalf("record %s lost in crash", id)
		}
	}
	if got := r2.WALMetrics().Replayed.Load(); got != int64(len(ids)) {
		t.Fatalf("Replayed = %d, want %d", got, len(ids))
	}
}

// TestRegistryWALCheckpointOnEvict proves eviction persists the
// snapshot and then empties the log: the next open replays nothing and
// still sees every record.
func TestRegistryWALCheckpointOnEvict(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	r := newWALRegistry(t, snapDir, walDir, 0)
	if _, err := r.Open("ward-a"); err != nil {
		t.Fatal(err)
	}
	walIngest(t, r, "ward-a", "rec-0")
	walIngest(t, r, "ward-a", "rec-1")
	if err := r.Evict("ward-a"); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(walDir, "ward-a"+walExt))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("post-eviction WAL holds %d bytes, want 0", fi.Size())
	}
	if got := r.WALMetrics().Checkpoints.Load(); got != 1 {
		t.Fatalf("Checkpoints = %d, want 1", got)
	}

	s, err := r.Open("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.NumRecords(); n != 2 {
		t.Fatalf("reloaded %d records, want 2", n)
	}
	if got := r.WALMetrics().Replayed.Load(); got != 0 {
		t.Fatalf("Replayed = %d after checkpoint, want 0", got)
	}
}

// TestRegistryWALMemoryOnlyClose: with no snapshot directory the WAL
// is the ONLY durable copy — Close must not checkpoint it, and a fresh
// registry replays everything.
func TestRegistryWALMemoryOnlyClose(t *testing.T) {
	walDir := t.TempDir()
	r := newWALRegistry(t, "", walDir, 0)
	if _, err := r.Open("ward-a"); err != nil {
		t.Fatal(err)
	}
	walIngest(t, r, "ward-a", "rec-0")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := newWALRegistry(t, "", walDir, 0)
	s, err := r2.Open("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Record("rec-0"); !ok {
		t.Fatal("memory-only Close checkpointed the WAL away")
	}
}

// TestRegistryWALAdoptReplays: Adopt replays the tenant's log into the
// adopted store — a promoted replica catching up on journaled ingests.
func TestRegistryWALAdoptReplays(t *testing.T) {
	walDir := t.TempDir()
	// Journal two records directly, as a crashed primary left them.
	lg, err := wal.Open(filepath.Join(walDir, "ward-a"+walExt), wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"rec-0", "rec-1"} {
		if err := lg.Append([]byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	r := newWALRegistry(t, "", walDir, 0)
	replica := NewStore()
	// The parked replica already holds rec-0; replay must skip it and
	// add only rec-1.
	if _, err := replica.Insert(&Record{ID: "rec-0", Samples: make([]float64, 64)}, 64, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt("ward-a", replica); err != nil {
		t.Fatal(err)
	}
	if n := replica.NumRecords(); n != 2 {
		t.Fatalf("adopted store has %d records, want 2", n)
	}
	// The adopted tenant's log is live: appends land in the same file.
	if err := r.AppendWAL("ward-a", []byte("rec-2")); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryAppendWALErrors pins the sentinel contract.
func TestRegistryAppendWALErrors(t *testing.T) {
	plain, err := NewRegistry("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AppendWAL("ward-a", []byte("x")); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("AppendWAL without WAL = %v, want ErrNoWAL", err)
	}
	r := newWALRegistry(t, "", t.TempDir(), 0)
	if err := r.AppendWAL("ghost", []byte("x")); !errors.Is(err, ErrTenantNotResident) {
		t.Fatalf("AppendWAL(unopened) = %v, want ErrTenantNotResident", err)
	}
}

// TestRegistryWALDropSnapshotRemovesLog: migration cleanup deletes the
// log with the snapshot so a later Open cannot resurrect the tenant.
func TestRegistryWALDropSnapshotRemovesLog(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	r := newWALRegistry(t, snapDir, walDir, 0)
	if _, err := r.Open("ward-a"); err != nil {
		t.Fatal(err)
	}
	walIngest(t, r, "ward-a", "rec-0")
	if _, ok := r.Drop("ward-a"); !ok {
		t.Fatal("Drop failed")
	}
	if err := r.DropSnapshot("ward-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "ward-a"+walExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("WAL survived DropSnapshot: %v", err)
	}
	s, err := r.Open("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.NumRecords(); n != 0 {
		t.Fatalf("dropped tenant resurrected with %d records", n)
	}
}

// TestRegistryOnPersistErrorRetry breaks the snapshot directory so an
// eviction-time persist fails: the hook fires, the slot survives, and
// the next eviction pass retries successfully once the directory is
// back.
func TestRegistryOnPersistErrorRetry(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	r, err := NewRegistry(snapDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hookTenant string
	var hookErr error
	r.OnPersistError = func(tenant string, err error) {
		hookTenant, hookErr = tenant, err
	}
	sa, err := r.Open("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Insert(&Record{ID: "rec-0", Samples: make([]float64, 64)}, 64, nil); err != nil {
		t.Fatal(err)
	}
	// Replace the snapshot directory with a file: SaveFile's
	// temp-file creation fails.
	if err := os.RemoveAll(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("ward-b"); err == nil {
		t.Fatal("Open succeeded despite persist failure")
	}
	if hookTenant != "ward-a" || hookErr == nil {
		t.Fatalf("OnPersistError = (%q, %v), want ward-a + error", hookTenant, hookErr)
	}
	// The victim survived the failed eviction.
	if _, ok := r.Get("ward-a"); !ok {
		t.Fatal("failed persist lost the tenant slot")
	}
	// Heal the directory; the next eviction pass retries the persist.
	if err := os.Remove(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("ward-b"); err != nil {
		t.Fatalf("retry eviction: %v", err)
	}
	if _, err := os.Stat(filepath.Join(snapDir, "ward-a"+snapExt)); err != nil {
		t.Fatalf("retried persist wrote no snapshot: %v", err)
	}
	if _, ok := r.Get("ward-a"); ok {
		t.Fatal("ward-a still resident after successful retry")
	}
}

// TestRegistryWALCrashPreCheckpointRename: a crash between the
// snapshot persist and the checkpoint rename leaves BOTH the snapshot
// and the full log; the next open must apply the log idempotently, not
// double-insert.
func TestRegistryWALCrashPreCheckpointRename(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	fs := iofault.NewFaulty()
	r, err := NewRegistry(snapDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableWAL(WALConfig{Dir: walDir, FS: fs, Apply: walApplyByID}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("ward-a"); err != nil {
		t.Fatal(err)
	}
	walIngest(t, r, "ward-a", "rec-0")
	walIngest(t, r, "ward-a", "rec-1")
	// Kill the WAL filesystem at the checkpoint's rename: the snapshot
	// (real OS file) lands, the log survives in full.
	fs.CrashAt(iofault.OpRename, 1)
	if err := r.Evict("ward-a"); err != nil {
		t.Fatalf("eviction must succeed despite checkpoint crash: %v", err)
	}

	r2 := newWALRegistry(t, snapDir, walDir, 0)
	s, err := r2.Open("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.NumRecords(); n != 2 {
		t.Fatalf("recovered %d records, want 2", n)
	}
	if got := r2.WALMetrics().Replayed.Load(); got != 2 {
		t.Fatalf("Replayed = %d, want 2 (full log survived)", got)
	}
}

// TestRegistryWALManyTenants exercises per-tenant isolation: each
// tenant's log replays into its own store.
func TestRegistryWALManyTenants(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	r := newWALRegistry(t, snapDir, walDir, 0)
	for i := 0; i < 4; i++ {
		tn := fmt.Sprintf("ward-%d", i)
		if _, err := r.Open(tn); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			walIngest(t, r, tn, fmt.Sprintf("%s-rec-%d", tn, j))
		}
	}
	r2 := newWALRegistry(t, snapDir, walDir, 0)
	for i := 0; i < 4; i++ {
		tn := fmt.Sprintf("ward-%d", i)
		s, err := r2.Open(tn)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.NumRecords(); n != i+1 {
			t.Fatalf("%s recovered %d records, want %d", tn, n, i+1)
		}
	}
}
