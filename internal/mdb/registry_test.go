package mdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"emap/internal/synth"
)

// testRecord builds a small processed record with n samples.
func testRecord(id string, n int) *Record {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(i%13) - 6
	}
	return &Record{ID: id, Class: synth.Normal, Onset: -1, Samples: samples}
}

func TestValidTenantID(t *testing.T) {
	for _, ok := range []string{"default", "ward-7", "p.9_x", "A", "0"} {
		if !ValidTenantID(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "-x", "a/b", "a\\b", "a b", string(long)} {
		if ValidTenantID(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
}

func TestRegistryOpenCreatesEmpty(t *testing.T) {
	r, err := NewRegistry("", 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSets() != 0 {
		t.Fatalf("fresh tenant has %d sets", s.NumSets())
	}
	again, err := r.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	if again != s {
		t.Fatal("second Open returned a different store")
	}
	if _, err := r.Open("no/path"); err == nil {
		t.Fatal("invalid tenant ID should error")
	}
	if got := r.List(); !reflect.DeepEqual(got, []string{"alice"}) {
		t.Fatalf("List = %v", got)
	}
}

func TestRegistryAdopt(t *testing.T) {
	r, _ := NewRegistry("", 0)
	s := NewStore()
	if _, err := s.Insert(testRecord("r1", 2000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt("default", s); err != nil {
		t.Fatal(err)
	}
	got, err := r.Open("default")
	if err != nil || got != s {
		t.Fatalf("Open after Adopt: %v, same=%v", err, got == s)
	}
	if err := r.Adopt("default", NewStore()); err == nil {
		t.Fatal("double Adopt should error")
	}
}

func TestRegistryEvictPersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := r.Open("bob")
	if _, err := s.Insert(testRecord("r1", 3000), 1000, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := r.Evict("bob"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("registry still holds %d tenants", r.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "bob.snap")); err != nil {
		t.Fatalf("eviction wrote no snapshot: %v", err)
	}
	if got := r.ListStored(); !reflect.DeepEqual(got, []string{"bob"}) {
		t.Fatalf("ListStored = %v", got)
	}
	// Lazy reload on the next Open.
	reloaded, err := r.Open("bob")
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumSets() != 3 || reloaded.NumRecords() != 1 {
		t.Fatalf("reloaded store: %d sets, %d records", reloaded.NumSets(), reloaded.NumRecords())
	}
	if _, anom := reloaded.LabelCounts(); anom != 3 {
		t.Fatalf("labels lost on reload: %d anomalous", anom)
	}
}

// TestRegistryRefusesGobSnapshot: a tenant whose snapshot file is a gob
// image fails Open with the conversion hint. It does not come up as an
// empty store, which would shadow the recordings on disk and, at the
// next persist, overwrite them.
func TestRegistryRefusesGobSnapshot(t *testing.T) {
	dir := t.TempDir()
	src := NewStore()
	if _, err := src.Insert(testRecord("r1", 3000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "carol.snap")
	old := gobImage(t, src)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewRegistry(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := r.Open("carol"); err == nil || !strings.Contains(err.Error(), "emap-mdb convert") {
		t.Fatalf("Open over a gob snapshot = (%v, %v), want the convert hint", s, err)
	}
	if _, ok := r.Get("carol"); ok || r.Len() != 0 {
		t.Fatal("a refused tenant is resident")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the gob snapshot changed on disk (err %v)", err)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.Open("a")
	if _, err := a.Insert(testRecord("ra", 1000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("b"); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is the LRU victim.
	if _, err := r.Open("a"); err != nil {
		t.Fatal(err)
	}
	evicted := ""
	r.OnEvict = func(id string, _ *Store) { evicted = id }
	if _, err := r.Open("c"); err != nil {
		t.Fatal(err)
	}
	if evicted != "b" {
		t.Fatalf("evicted %q, want b (LRU)", evicted)
	}
	open := r.List()
	if !reflect.DeepEqual(open, []string{"a", "c"}) {
		t.Fatalf("open tenants = %v", open)
	}
}

func TestRegistryFullWithoutDir(t *testing.T) {
	r, _ := NewRegistry("", 1)
	s, _ := r.Open("a")
	if _, err := s.Insert(testRecord("ra", 1000), 1000, nil); err != nil {
		t.Fatal(err)
	}
	// Evicting a non-empty store with nowhere to save it must refuse
	// rather than silently drop patient data.
	if _, err := r.Open("b"); err == nil {
		t.Fatal("memory-only registry evicting non-empty store should error")
	}
}

func TestRegistryCloseSavesAll(t *testing.T) {
	dir := t.TempDir()
	r, _ := NewRegistry(dir, 0)
	for _, id := range []string{"x", "y"} {
		s, _ := r.Open(id)
		if _, err := s.Insert(testRecord("r-"+id, 2000), 1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatal("Close left tenants open")
	}
	if got := r.ListStored(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("ListStored after Close = %v", got)
	}
}

// TestRegistryConcurrentOpen: concurrent Opens of the same tenant must
// converge on one store (race-clean under -race).
func TestRegistryConcurrentOpen(t *testing.T) {
	r, _ := NewRegistry(t.TempDir(), 0)
	const goroutines = 8
	stores := make([]*Store, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.Open("shared")
			if err != nil {
				t.Error(err)
				return
			}
			stores[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if stores[i] != stores[0] {
			t.Fatal("concurrent Opens returned distinct stores")
		}
	}
}
