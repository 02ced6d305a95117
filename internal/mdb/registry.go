package mdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"emap/internal/iofault"
	"emap/internal/wal"
)

// ErrRegistryFull is returned by Open when the registry is at its
// tenant cap and cannot evict (no snapshot directory to save the
// victim to — evicting would lose data).
var ErrRegistryFull = errors.New("mdb: registry full and no snapshot directory to evict into")

// snapExt is the filename extension of per-tenant snapshot files
// inside a registry directory.
const snapExt = ".snap"

// walExt is the filename extension of per-tenant write-ahead logs
// inside a WAL directory.
const walExt = ".wal"

// ErrNoWAL is returned by AppendWAL on a registry without EnableWAL.
var ErrNoWAL = errors.New("mdb: WAL not enabled")

// ErrTenantNotResident is returned by AppendWAL when the tenant is not
// (or no longer) resident — typically an eviction racing the append.
// Callers resolve it the way they resolve a store-identity mismatch:
// reopen the tenant and retry.
var ErrTenantNotResident = errors.New("mdb: tenant not resident")

// ValidTenantID reports whether id is an acceptable tenant identifier:
// 1–64 characters from [A-Za-z0-9._-], starting with a letter or
// digit. The rule keeps IDs safe to embed in snapshot filenames and in
// wire frames.
func ValidTenantID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// Registry manages the live tenant stores of one cloud process: each
// tenant (patient cohort) owns an independently growing Store. Stores
// open lazily — from a snapshot in the registry directory when one
// exists, empty otherwise — and a bounded registry evicts the least
// recently used store (persisting it first) when a new tenant would
// exceed the cap. Close persists every open store, the shutdown half
// of the paper's "continuously growing MongoDB" role.
type Registry struct {
	// OnEvict, when set, runs after a store leaves the registry (its
	// snapshot, if any, already written). The cloud tier uses it to
	// drop per-tenant serving state. Set it before the first Open.
	// It is always invoked WITHOUT the registry lock held, so it may
	// query the registry (but must not mutate it).
	OnEvict func(tenant string, s *Store)

	// OnPersistError, when set, runs (without the registry lock) after
	// an eviction-time snapshot persist fails. The slot is re-installed
	// — losing patient data is worse than exceeding the tenant cap —
	// and, still being the LRU victim, is retried on the next eviction
	// pass; the hook is how operators see the failure in the meantime.
	// Set before the first Open.
	OnPersistError func(tenant string, err error)

	// walCfg, when non-nil, makes every tenant durable between
	// persists: Open/Adopt replay the tenant's log before serving, and
	// AppendWAL journals each ingest. Set via EnableWAL before the
	// first Open; immutable afterwards.
	walCfg *WALConfig
	walM   wal.Metrics

	mu    sync.Mutex
	dir   string // "" = memory-only, eviction cannot persist
	max   int    // ≤0 = unbounded
	clock int64
	// budget is the per-tenant tier byte budget applied to every store
	// the registry opens or adopts (0: unlimited). Set before the
	// first Open.
	budget int64
	open   map[string]*tenantSlot
	// evicting maps tenants whose snapshot persist is in flight (the
	// slow disk write runs outside mu) to a channel closed when it
	// completes; Open of such a tenant waits so it reloads the fresh
	// snapshot, never a stale one.
	evicting map[string]chan struct{}
}

type tenantSlot struct {
	store   *Store
	lastUse int64
	// wal is the tenant's open write-ahead log (nil when the registry
	// has no WAL). Evicting closes it after the snapshot persist
	// checkpoints it; appends racing the close fail with wal.ErrClosed,
	// surfaced as ErrTenantNotResident.
	wal *wal.Log
	// resident turns true once the store is loaded and usable;
	// non-resident slots are invisible to Get and never evicted.
	resident bool
	// ready is closed when the opener finishes (store loaded or load
	// failed); concurrent Opens wait on it instead of receiving a
	// half-loaded store.
	ready chan struct{}
	// loadErr is the opener's failure, set before ready closes.
	loadErr error
}

// NewRegistry returns a registry persisting tenant snapshots under
// dir ("" keeps everything in memory) holding at most max open stores
// (≤0: unbounded). The directory is created if missing.
func NewRegistry(dir string, max int) (*Registry, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("mdb: registry dir: %w", err)
		}
	}
	return &Registry{
		dir:      dir,
		max:      max,
		open:     make(map[string]*tenantSlot),
		evicting: make(map[string]chan struct{}),
	}, nil
}

// Dir returns the registry's snapshot directory ("" when memory-only).
func (r *Registry) Dir() string { return r.dir }

// WALConfig enables crash-safe ingest durability on a registry.
type WALConfig struct {
	// Dir holds one log per tenant (<tenant>.wal); created if missing.
	Dir string
	// Sync is the fsync policy (default wal.SyncAlways) and Interval
	// the wal.SyncInterval cadence.
	Sync     wal.Policy
	Interval time.Duration
	// FS is the filesystem the logs live on (default the real OS);
	// durability tests inject an iofault.Faulty here.
	FS iofault.FS
	// Apply re-inserts one journaled payload into the tenant's store
	// during replay. Replay can present records the snapshot already
	// covers (a checkpoint that crashed pre-rename); Apply must treat
	// an already-present record ID as a no-op, not an error.
	Apply func(s *Store, payload []byte) error
}

// EnableWAL turns on per-tenant write-ahead logging. Call before the
// first Open; the configuration is immutable afterwards.
func (r *Registry) EnableWAL(cfg WALConfig) error {
	if cfg.Dir == "" {
		return errors.New("mdb: WAL config needs a directory")
	}
	if cfg.Apply == nil {
		return errors.New("mdb: WAL config needs an Apply function")
	}
	if cfg.FS == nil {
		cfg.FS = iofault.OS()
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("mdb: WAL dir: %w", err)
	}
	r.walCfg = &cfg
	return nil
}

// WALEnabled reports whether EnableWAL has been called.
func (r *Registry) WALEnabled() bool { return r.walCfg != nil }

// WALMetrics returns the registry-wide WAL counters (aggregated over
// every tenant log). Valid even before EnableWAL.
func (r *Registry) WALMetrics() *wal.Metrics { return &r.walM }

// walPath returns the tenant's log path.
func (r *Registry) walPath(tenant string) string {
	return filepath.Join(r.walCfg.Dir, tenant+walExt)
}

// replayAndOpenWAL replays the tenant's log into s (records acked
// before a crash re-enter the store) and opens it for appending. Runs
// during Open/Adopt, before the slot turns resident.
func (r *Registry) replayAndOpenWAL(tenant string, s *Store) (*wal.Log, error) {
	cfg := r.walCfg
	path := r.walPath(tenant)
	if _, err := wal.Replay(cfg.FS, path, &r.walM, func(p []byte) error {
		return cfg.Apply(s, p)
	}); err != nil {
		return nil, fmt.Errorf("mdb: replaying WAL for tenant %q: %w", tenant, err)
	}
	lg, err := wal.Open(path, wal.Options{Sync: cfg.Sync, Interval: cfg.Interval, FS: cfg.FS}, &r.walM)
	if err != nil {
		return nil, fmt.Errorf("mdb: tenant %q: %w", tenant, err)
	}
	return lg, nil
}

// AppendWAL journals one ingest payload to the tenant's log BEFORE the
// caller inserts it into the store. Under wal.SyncAlways a nil return
// means the payload is on stable storage — the caller may acknowledge.
// ErrTenantNotResident means an eviction won the race; reopen the
// tenant and retry, exactly as for a store-identity mismatch.
func (r *Registry) AppendWAL(tenant string, payload []byte) error {
	if r.walCfg == nil {
		return ErrNoWAL
	}
	r.mu.Lock()
	slot, ok := r.open[tenant]
	if !ok || !slot.resident || slot.wal == nil {
		r.mu.Unlock()
		return ErrTenantNotResident
	}
	lg := slot.wal
	r.mu.Unlock()
	// Append outside the registry lock: an fsync must never stall
	// other tenants' opens. The log closing under us (eviction)
	// surfaces as ErrClosed.
	if err := lg.Append(payload); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return ErrTenantNotResident
		}
		return err
	}
	return nil
}

// SetStoreBudget applies a tier byte budget (see Store.SetTierBudget)
// to every store the registry opens, adopts, or already holds. 0
// removes the cap.
func (r *Registry) SetStoreBudget(bytes int64) {
	r.mu.Lock()
	r.budget = bytes
	slots := make([]*tenantSlot, 0, len(r.open))
	for _, slot := range r.open {
		if slot.resident {
			slots = append(slots, slot)
		}
	}
	r.mu.Unlock()
	for _, slot := range slots {
		slot.store.SetTierBudget(bytes)
	}
}

// newTenantStore creates the store for a tenant with no snapshot,
// honouring the registry's configured budget.
func (r *Registry) newTenantStore() *Store {
	r.mu.Lock()
	budget := r.budget
	r.mu.Unlock()
	s := NewStore()
	if budget > 0 {
		s.SetTierBudget(budget)
	}
	return s
}

// touch must be called with r.mu held.
func (r *Registry) touch(slot *tenantSlot) {
	r.clock++
	slot.lastUse = r.clock
}

// Open returns the tenant's store, opening it if needed: a snapshot in
// the registry directory is loaded lazily, otherwise a new empty store
// is created (a tenant may start empty and fill via ingest). Opening
// past the tenant cap evicts the least recently used resident store
// first, saving it to the registry directory.
func (r *Registry) Open(tenant string) (*Store, error) {
	if !ValidTenantID(tenant) {
		return nil, fmt.Errorf("mdb: invalid tenant ID %q", tenant)
	}
	for {
		r.mu.Lock()
		// An in-flight eviction of this tenant is still writing its
		// snapshot; wait for the write so the reload below sees it.
		if done, ok := r.evicting[tenant]; ok {
			r.mu.Unlock()
			<-done
			continue
		}
		if slot, ok := r.open[tenant]; ok {
			r.touch(slot)
			r.mu.Unlock()
			// Another goroutine may still be loading the snapshot;
			// wait for it rather than returning a store the load
			// would later overwrite (losing anything inserted
			// meanwhile).
			<-slot.ready
			if slot.loadErr != nil {
				return nil, slot.loadErr
			}
			return slot.store, nil
		}
		pend, err := r.makeRoomLocked()
		if err != nil {
			r.mu.Unlock()
			if ferr := r.finishEvicts(pend); ferr != nil {
				return nil, ferr
			}
			return nil, err
		}
		// Reserve the slot before the (possibly slow) snapshot load
		// so a concurrent Open of the same tenant waits for this one
		// instead of loading twice.
		slot := &tenantSlot{ready: make(chan struct{})}
		r.touch(slot)
		r.open[tenant] = slot
		dir := r.dir
		r.mu.Unlock()
		if err := r.finishEvicts(pend); err != nil {
			r.mu.Lock()
			delete(r.open, tenant)
			slot.loadErr = err
			r.mu.Unlock()
			close(slot.ready)
			return nil, err
		}

		store := r.newTenantStore()
		var loadErr error
		if dir != "" {
			path := filepath.Join(dir, tenant+snapExt)
			if _, err := os.Stat(path); err == nil {
				loaded, err := LoadFile(path)
				if err != nil {
					loadErr = fmt.Errorf("mdb: loading tenant %q: %w", tenant, err)
				} else {
					store = loaded
					r.mu.Lock()
					budget := r.budget
					r.mu.Unlock()
					if budget > 0 {
						store.SetTierBudget(budget)
					}
				}
			}
		}
		// Re-apply journaled ingests the snapshot missed, then open the
		// log for this residency.
		var lg *wal.Log
		if loadErr == nil && r.walCfg != nil {
			lg, loadErr = r.replayAndOpenWAL(tenant, store)
		}
		r.mu.Lock()
		if loadErr != nil {
			delete(r.open, tenant)
			slot.loadErr = loadErr
		} else {
			slot.store = store
			slot.wal = lg
			slot.resident = true
		}
		r.mu.Unlock()
		close(slot.ready)
		return store, loadErr
	}
}

// Adopt registers an existing store under the given tenant ID,
// replacing nothing: adopting an already-open tenant is an error. It
// seeds a registry with a pre-built store (e.g. the default tenant of
// a single-store deployment, or a parked replica promoted after a
// failover). With a WAL enabled, the tenant's log replays into the
// adopted store first — a promoted replica catches up on the ingests
// journaled since its copy was parked.
func (r *Registry) Adopt(tenant string, s *Store) error {
	if !ValidTenantID(tenant) {
		return fmt.Errorf("mdb: invalid tenant ID %q", tenant)
	}
	if s == nil {
		s = NewStore()
	}
	r.mu.Lock()
	if _, ok := r.open[tenant]; ok {
		r.mu.Unlock()
		return fmt.Errorf("mdb: tenant %q already open", tenant)
	}
	if _, ok := r.evicting[tenant]; ok {
		r.mu.Unlock()
		return fmt.Errorf("mdb: tenant %q is being evicted", tenant)
	}
	pend, err := r.makeRoomLocked()
	if err != nil {
		r.mu.Unlock()
		if ferr := r.finishEvicts(pend); ferr != nil {
			return ferr
		}
		return err
	}
	// Reserve a non-resident slot so concurrent Opens wait for the
	// replay below instead of loading a stale snapshot over it.
	slot := &tenantSlot{ready: make(chan struct{})}
	r.touch(slot)
	r.open[tenant] = slot
	budget := r.budget
	r.mu.Unlock()
	if budget > 0 {
		s.SetTierBudget(budget)
	}
	evictErr := r.finishEvicts(pend)

	var lg *wal.Log
	if r.walCfg != nil {
		lg, err = r.replayAndOpenWAL(tenant, s)
		if err != nil {
			r.mu.Lock()
			delete(r.open, tenant)
			slot.loadErr = err
			r.mu.Unlock()
			close(slot.ready)
			return err
		}
	}
	r.mu.Lock()
	slot.store = s
	slot.wal = lg
	slot.resident = true
	r.mu.Unlock()
	close(slot.ready)
	return evictErr
}

// Get returns the tenant's store without opening or creating it.
// Tenants still mid-load report absent.
func (r *Registry) Get(tenant string) (*Store, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.open[tenant]
	if !ok || !slot.resident {
		return nil, false
	}
	r.touch(slot)
	return slot.store, true
}

// List returns the open tenant IDs, sorted.
func (r *Registry) List() []string {
	r.mu.Lock()
	out := make([]string, 0, len(r.open))
	for id := range r.open {
		out = append(out, id)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// ListStored returns the tenant IDs with a snapshot in the registry
// directory, sorted ("" directory: none). Together with List this is
// the complete tenant population an operator can reach.
func (r *Registry) ListStored() []string {
	if r.dir == "" {
		return nil
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapExt) {
			continue
		}
		if id := strings.TrimSuffix(name, snapExt); ValidTenantID(id) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of open tenant stores.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// pendingEvict is one eviction begun under the lock: the slot has
// left the open map and the tenant is barred from reopening until the
// snapshot persist completes (finishEvicts).
type pendingEvict struct {
	id   string
	slot *tenantSlot
	done chan struct{}
}

// beginEvictLocked removes the slot from the open map and bars the
// tenant from reopening until finishEvicts closes the barrier. Caller
// holds r.mu.
func (r *Registry) beginEvictLocked(id string, slot *tenantSlot) pendingEvict {
	delete(r.open, id)
	done := make(chan struct{})
	r.evicting[id] = done
	return pendingEvict{id: id, slot: slot, done: done}
}

// finishEvicts runs each begun eviction's snapshot persist — the slow
// disk write — WITHOUT the registry lock, so one tenant's churn never
// stalls the others' opens, then lifts the reopen barrier and fires
// OnEvict. A persist failure re-installs the slot (losing patient
// data is worse than exceeding the tenant cap) and is returned after
// all evictions were attempted. Callers must not hold r.mu.
func (r *Registry) finishEvicts(pend []pendingEvict) error {
	var firstErr error
	for _, p := range pend {
		err := r.persist(p.id, p.slot.store)
		if err == nil {
			if p.slot.wal != nil {
				// The snapshot now covers every journaled record:
				// checkpoint (empty) the log, then close it. A failed
				// checkpoint is non-fatal — the next replay re-applies
				// covered records and Apply skips them.
				p.slot.wal.Checkpoint()
				p.slot.wal.Close()
			}
			if r.OnEvict != nil {
				// Notify BEFORE lifting the reopen barrier: once the
				// barrier drops, the tenant may reopen with fresh
				// serving state that a late notification must not
				// destroy.
				r.OnEvict(p.id, p.slot.store)
			}
		} else if r.OnPersistError != nil {
			// The slot (and its open WAL) is re-installed below;
			// the next eviction pass retries the persist.
			r.OnPersistError(p.id, err)
		}
		r.mu.Lock()
		if err != nil {
			r.open[p.id] = p.slot
		}
		delete(r.evicting, p.id)
		r.mu.Unlock()
		close(p.done)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// makeRoomLocked begins evicting least-recently-used resident tenants
// until one more store fits, returning the evictions for the caller to
// finish (persist + notify) after releasing r.mu.
func (r *Registry) makeRoomLocked() ([]pendingEvict, error) {
	var pend []pendingEvict
	for r.max > 0 && len(r.open) >= r.max {
		victim := ""
		var oldest int64
		for id, slot := range r.open {
			if !slot.resident {
				continue // mid-load; not safe to evict
			}
			if victim == "" || slot.lastUse < oldest {
				victim, oldest = id, slot.lastUse
			}
		}
		if victim == "" {
			return pend, ErrRegistryFull
		}
		if r.dir == "" && r.open[victim].store.NumRecords() > 0 {
			// Nowhere to persist a non-empty victim: refuse up
			// front rather than beginning an eviction that must be
			// rolled back.
			return pend, ErrRegistryFull
		}
		pend = append(pend, r.beginEvictLocked(victim, r.open[victim]))
	}
	return pend, nil
}

// persist writes the tenant's snapshot when a directory is
// configured; without one, eviction of a non-empty store would lose
// data, so it is refused. Safe without r.mu (dir is immutable, each
// Save captures one store epoch).
//
// The write races in-flight Ingests: the caller has already removed
// the tenant from the open map, but an insert that resolved the store
// BEFORE the eviction began can land while (or after) Save runs, and a
// snapshot missing it would silently drop an acknowledged recording —
// the reload after eviction resurrects the store without it. So
// persist pins the epoch it wrote (snapshots are pointer-comparable)
// and re-saves until the store's current epoch is the one on disk. The
// loop terminates: the tenant is barred from reopening, so only the
// bounded set of already-resolved inserts can still advance the store.
func (r *Registry) persist(tenant string, s *Store) error {
	if r.dir == "" {
		if s.NumRecords() > 0 {
			return ErrRegistryFull
		}
		return nil
	}
	path := filepath.Join(r.dir, tenant+snapExt)
	for {
		snap := s.Snapshot()
		if err := snap.SaveFile(path); err != nil {
			return fmt.Errorf("mdb: saving tenant %q: %w", tenant, err)
		}
		if s.Snapshot() == snap {
			return nil
		}
	}
}

// Drop removes the tenant from the registry WITHOUT persisting it,
// firing OnEvict, and returns the store that was registered. It exists
// for tenant migration (internal/cluster): once a tenant's snapshot
// has been transferred to another node, the local copy is surrendered,
// not saved — saving it would resurrect a stale twin on the next Open.
// Dropping a tenant that is not open (or still mid-load) is a no-op.
func (r *Registry) Drop(tenant string) (*Store, bool) {
	r.mu.Lock()
	slot, ok := r.open[tenant]
	if !ok || !slot.resident {
		r.mu.Unlock()
		return nil, false
	}
	delete(r.open, tenant)
	r.mu.Unlock()
	if slot.wal != nil {
		// No checkpoint: the tenant's data now lives elsewhere and
		// DropSnapshot removes the log file alongside the snapshot.
		slot.wal.Close()
	}
	if r.OnEvict != nil {
		r.OnEvict(tenant, slot.store)
	}
	return slot.store, true
}

// DropSnapshot deletes the tenant's on-disk snapshot and write-ahead
// log, if any. Paired with Drop during migration so a later Open
// cannot resurrect the transferred tenant from a stale file.
func (r *Registry) DropSnapshot(tenant string) error {
	if !ValidTenantID(tenant) {
		return nil
	}
	if r.walCfg != nil {
		if err := r.walCfg.FS.Remove(r.walPath(tenant)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if r.dir == "" {
		return nil
	}
	err := os.Remove(filepath.Join(r.dir, tenant+snapExt))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Evict persists the tenant's store (when a directory is configured)
// and drops it from the registry. The next Open reloads it lazily.
func (r *Registry) Evict(tenant string) error {
	r.mu.Lock()
	slot, ok := r.open[tenant]
	if !ok || !slot.resident {
		r.mu.Unlock()
		return fmt.Errorf("mdb: tenant %q not open", tenant)
	}
	pend := r.beginEvictLocked(tenant, slot)
	r.mu.Unlock()
	return r.finishEvicts([]pendingEvict{pend})
}

// Close persists every open tenant store and empties the registry —
// the shutdown flush. Memory-only registries simply drop their
// stores. The first persistence error is returned, but every tenant
// is attempted.
func (r *Registry) Close() error {
	r.mu.Lock()
	var pend []pendingEvict
	var dropped []pendingEvict
	ids := make([]string, 0, len(r.open))
	for id := range r.open {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		slot := r.open[id]
		if !slot.resident {
			// Mid-load: nothing of this tenant's is in memory yet;
			// dropping the slot loses no data (the snapshot stays).
			delete(r.open, id)
			continue
		}
		if r.dir == "" {
			// Shutdown of a memory-only registry discards stores by
			// design; only eviction-with-nowhere-to-save is an
			// error, not Close.
			delete(r.open, id)
			dropped = append(dropped, pendingEvict{id: id, slot: slot})
			continue
		}
		pend = append(pend, r.beginEvictLocked(id, slot))
	}
	r.mu.Unlock()
	for _, p := range dropped {
		if p.slot.wal != nil {
			// No snapshot was written, so NO checkpoint: with a
			// memory-only registry the log is the only durable copy,
			// and the next Open replays it.
			p.slot.wal.Close()
		}
		if r.OnEvict != nil {
			r.OnEvict(p.id, p.slot.store)
		}
	}
	return r.finishEvicts(pend)
}
