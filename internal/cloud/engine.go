package cloud

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
)

// Engine is the tenant-engine layer of the cloud tier, split out from
// the connection transport so a process can host tenant engines without
// owning a listener: a registry of live tenant stores, the per-tenant
// serving state (searcher, correlation-set cache, batch collector,
// metrics), and a worker pool shared across tenants. It implements
// FrameHandler, so a Transport — or a cluster node wrapping it with
// ownership checks — can put it on the wire directly.
type Engine struct {
	cfg      Config
	registry *mdb.Registry
	sem      chan struct{} // bounded worker pool, shared by all tenants

	// done is closed when the engine stops (Stop); batch leaders
	// waiting out a collection window select on it so a drain is never
	// delayed by up to a full BatchWindow.
	done     chan struct{}
	stopOnce sync.Once

	tmu     sync.Mutex
	tenants map[string]*tenant // serving state per open tenant

	// searchHook, when set, runs on the request path after decoding,
	// before the cache and the batching collector — tests use it to
	// hold requests in flight. backlogHook runs later, inside the
	// search backlog window (after admission and the cache, before
	// the batching collector) — a request held there counts as
	// backlog, so shedding is testable deterministically.
	searchHook  func(*proto.Upload)
	backlogHook func(*proto.Upload)

	// Metrics exposes registry-wide request counters and gauges;
	// MetricsFor exposes the per-tenant breakdown. The transport
	// carrying this engine shares the same Metrics.
	Metrics Metrics
}

// NewEngine returns a multi-tenant serving engine over the given tenant
// registry. Stores open lazily as requests name them; requests with an
// empty tenant field land on Config.DefaultTenant.
func NewEngine(reg *mdb.Registry, cfg Config) (*Engine, error) {
	if reg == nil {
		return nil, errors.New("cloud: nil registry")
	}
	cfg = cfg.withDefaults()
	// Fail at construction, not on the first tenant-less request:
	// every such frame routes here.
	if !mdb.ValidTenantID(cfg.DefaultTenant) {
		return nil, fmt.Errorf("cloud: invalid default tenant ID %q", cfg.DefaultTenant)
	}
	if cfg.StoreFormat != 0 && cfg.StoreFormat != mdb.FormatColumnar {
		return nil, fmt.Errorf("cloud: store format %d unsupported (the columnar image is the only one)", cfg.StoreFormat)
	}
	e := &Engine{
		cfg:      cfg,
		registry: reg,
		sem:      make(chan struct{}, cfg.Workers),
		done:     make(chan struct{}),
		tenants:  make(map[string]*tenant),
	}
	// Tier policy flows through the registry so every store it opens,
	// adopts, or reloads after eviction carries the same budget.
	if cfg.HotBytes > 0 {
		reg.SetStoreBudget(cfg.HotBytes)
	}
	// Evicted tenants lose their serving state too: a reopened
	// tenant must not search through a searcher over the old store.
	// The delete is conditional on store identity so a notification
	// racing a reopen can never destroy the reopened tenant's fresh
	// state.
	reg.OnEvict = func(id string, store *mdb.Store) {
		e.tmu.Lock()
		if t, ok := e.tenants[id]; ok && t.store == store {
			delete(e.tenants, id)
		}
		e.tmu.Unlock()
	}
	// A failed eviction-time persist keeps the tenant resident and
	// retries on the next pass; the counter (and log line) is how the
	// failure stops being silent.
	reg.OnPersistError = func(id string, err error) {
		e.Metrics.PersistErrors.Add(1)
		if cfg.Logger != nil {
			cfg.Logger.Printf("cloud: persisting tenant %q: %v", id, err)
		}
	}
	if cfg.WALDir != "" {
		if err := reg.EnableWAL(mdb.WALConfig{
			Dir:      cfg.WALDir,
			Sync:     cfg.WALSync,
			Interval: cfg.WALSyncInterval,
			FS:       cfg.WALFS,
			Apply: func(s *mdb.Store, payload []byte) error {
				return applyWALIngest(s, payload, cfg)
			},
		}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// applyWALIngest replays one journaled ingest payload (a TypeIngest
// wire payload) into a tenant store being opened. Records the snapshot
// already covers — a checkpoint that crashed before its rename — are
// skipped, keeping replay idempotent.
func applyWALIngest(s *mdb.Store, payload []byte, cfg Config) error {
	ing, err := proto.DecodeIngest(payload)
	if err != nil {
		return fmt.Errorf("cloud: journaled ingest: %w", err)
	}
	if _, ok := s.Record(ing.RecordID); ok {
		return nil
	}
	_, err = insertIngest(s, ing, cfg)
	return err
}

// Stop releases the engine's waiters (batch-collection windows); it
// does not touch the registry. Safe to call more than once.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.done) })
}

// Config returns the engine's effective configuration (defaults
// applied).
func (e *Engine) Config() Config { return e.cfg }

// Registry exposes the engine's tenant registry (for shutdown flushes
// and operator tooling).
func (e *Engine) Registry() *mdb.Registry { return e.registry }

// tenantFor resolves a wire tenant ID ("" = default tenant) to its
// serving state, opening the store through the registry if needed.
func (e *Engine) tenantFor(id string) (*tenant, error) {
	if id == "" {
		id = e.cfg.DefaultTenant
	}
	for {
		e.tmu.Lock()
		if t, ok := e.tenants[id]; ok {
			e.tmu.Unlock()
			return t, nil
		}
		e.tmu.Unlock()
		// Open outside tmu: the registry may evict another tenant
		// here, and its OnEvict hook takes tmu.
		store, err := e.registry.Open(id)
		if err != nil {
			return nil, err
		}
		e.tmu.Lock()
		if t, ok := e.tenants[id]; ok {
			e.tmu.Unlock()
			return t, nil
		}
		// The registry may have evicted this very tenant between the
		// Open and here (another tenant's Open needed the slot); a
		// serving state built on the detached store would route all
		// future traffic to a store the registry no longer persists.
		// Re-check under tmu — OnEvict also takes tmu, so an eviction
		// observed here has already dropped (or will drop) the map
		// entry, and a miss sends us back around to reopen.
		if cur, ok := e.registry.Get(id); !ok || cur != store {
			e.tmu.Unlock()
			continue
		}
		t := newTenant(id, store, e.cfg)
		e.tenants[id] = t
		e.tmu.Unlock()
		return t, nil
	}
}

// Tenants returns the tenants with live serving state.
func (e *Engine) Tenants() []string {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	out := make([]string, 0, len(e.tenants))
	for id := range e.tenants {
		out = append(out, id)
	}
	return out
}

// StoreStatsFor returns the tier-residency statistics of one tenant's
// store ("" = default tenant); ok is false when the tenant has no
// serving state.
func (e *Engine) StoreStatsFor(id string) (mdb.TierStats, bool) {
	if id == "" {
		id = e.cfg.DefaultTenant
	}
	e.tmu.Lock()
	t, ok := e.tenants[id]
	e.tmu.Unlock()
	if !ok {
		return mdb.TierStats{}, false
	}
	return t.store.TierStats(), true
}

// MetricsFor returns the metrics of one tenant ("" = default tenant),
// or nil when the tenant has no serving state yet. Per-tenant counts
// are isolated: tenant A's cache hits never show up under tenant B.
func (e *Engine) MetricsFor(id string) *Metrics {
	if id == "" {
		id = e.cfg.DefaultTenant
	}
	e.tmu.Lock()
	defer e.tmu.Unlock()
	if t, ok := e.tenants[id]; ok {
		return &t.metrics
	}
	return nil
}

// ServeFrame implements FrameHandler: uploads search, ingests insert,
// anything else is refused. Hello/Ping never reach the engine — the
// transport answers them.
func (e *Engine) ServeFrame(f proto.Frame) (proto.MsgType, []byte) {
	switch f.Type {
	case proto.TypeUpload:
		return e.serveUpload(f)
	case proto.TypeIngest:
		return e.serveIngest(f)
	default:
		e.Metrics.Errors.Add(1)
		return proto.TypeError, errorPayload(400, fmt.Sprintf("unexpected message type %d", f.Type))
	}
}

// serveUpload answers one upload. Cache hits reply immediately;
// everything else goes through the tenant's batching collector, which
// bounds concurrent shard scans by the shared worker pool. Either way
// the request ends holding a selection — the cache's on a hit, the
// batch's on a miss — and encodes its own reply from it, once, its Seq
// first.
func (e *Engine) serveUpload(frame proto.Frame) (proto.MsgType, []byte) {
	start := time.Now()
	// Errored requests count toward the latency sum too, so
	// MeanLatency stays an honest per-request figure.
	defer func() { e.Metrics.RequestNanos.Add(time.Since(start).Nanoseconds()) }()
	upload, err := proto.DecodeUpload(frame.Payload)
	if err != nil {
		e.Metrics.Errors.Add(1)
		return proto.TypeError, errorPayload(400, err.Error())
	}
	if e.searchHook != nil {
		e.searchHook(upload)
	}
	t, err := e.tenantFor(frame.Tenant)
	if err != nil {
		e.Metrics.Errors.Add(1)
		return proto.TypeError, errorPayload(404, err.Error())
	}
	t.metrics.Requests.Add(1)
	defer func() { t.metrics.RequestNanos.Add(time.Since(start).Nanoseconds()) }()
	if !e.admit(t) {
		return proto.TypeError, errorPayload(CodeRateLimited,
			fmt.Sprintf("tenant %q over its admission rate; retry later", t.id))
	}
	// sel is shared — with the cache, with every request deduplicated
	// onto it — and read-only.
	var sel *selection
	var key string
	var gen int64
	if t.cache != nil {
		var kbuf [2 * fingerprintWindow]byte
		if k, ok := appendFingerprint(kbuf[:0], upload.Samples, upload.Scale); ok {
			var cached bool
			if sel, gen, cached = t.cache.get(k); cached {
				e.Metrics.CacheHits.Add(1)
				t.metrics.CacheHits.Add(1)
			} else {
				e.Metrics.CacheMisses.Add(1)
				t.metrics.CacheMisses.Add(1)
				key = string(k)
			}
		}
	}
	if sel == nil {
		// The backlog gauge covers the whole queued-or-scanning
		// stretch; admission sheds routine uploads against it before
		// they join the queue, so a saturated pool stays a bounded
		// queue instead of an unbounded one. Cache hits never get
		// here — they cost no scan and are always served.
		if upload.Priority == proto.PriRoutine && e.shedRoutine(t) {
			return proto.TypeError, errorPayload(CodeShed,
				"server saturated; routine upload shed, retry with backoff")
		}
		e.Metrics.SearchBacklog.Add(1)
		if e.backlogHook != nil {
			e.backlogHook(upload)
		}
		p := &pending{window: search.Counts{Samples: upload.Samples, Scale: upload.Scale}, key: key, gen: gen}
		e.dispatch(t, p)
		e.Metrics.SearchBacklog.Add(-1)
		if p.err != nil {
			e.Metrics.Errors.Add(1)
			t.metrics.Errors.Add(1)
			return proto.TypeError, errorPayload(500, p.err.Error())
		}
		sel = p.sel
	}
	// The reply is this request's own, in a pooled buffer whoever
	// finishes with it releases (the transport's writer, after the
	// write).
	return proto.TypeCorrSet, sel.encode(upload.Seq)
}

// serveIngest inserts one pushed recording into its tenant's store and
// returns the acknowledgement. The store keeps serving searches while
// the insert runs — in-flight scans hold their epoch snapshot.
func (e *Engine) serveIngest(frame proto.Frame) (proto.MsgType, []byte) {
	start := time.Now()
	defer func() { e.Metrics.RequestNanos.Add(time.Since(start).Nanoseconds()) }()
	ing, err := proto.DecodeIngest(frame.Payload)
	if err != nil {
		e.Metrics.Errors.Add(1)
		return proto.TypeError, errorPayload(400, err.Error())
	}
	t, err := e.tenantFor(frame.Tenant)
	if err != nil {
		e.Metrics.Errors.Add(1)
		return proto.TypeError, errorPayload(404, err.Error())
	}
	t.metrics.Requests.Add(1)
	defer func() { t.metrics.RequestNanos.Add(time.Since(start).Nanoseconds()) }()
	// Ingests draw from the same per-tenant token bucket as uploads:
	// admission is per request, whatever the work behind it.
	if !e.admit(t) {
		return proto.TypeError, errorPayload(CodeRateLimited,
			fmt.Sprintf("tenant %q over its admission rate; retry later", t.id))
	}
	// Inserts share the search worker pool: the pass over the
	// recording that builds its block sums is CPU/memory work just like
	// a scan, and must stay bounded however many connections pipeline
	// ingests.
	e.sem <- struct{}{}
	ack, err := e.ingestInto(t, ing, frame.Payload)
	<-e.sem
	if err != nil {
		e.Metrics.Errors.Add(1)
		t.metrics.Errors.Add(1)
		code := uint16(409)
		if errors.Is(err, errTenantEvicted) {
			code = 503
		}
		return proto.TypeError, errorPayload(code, err.Error())
	}
	return proto.TypeIngestAck, proto.EncodeIngestAck(ack)
}

// errTenantEvicted marks an ingest that kept colliding with tenant
// evictions (see ingestInto); the client may retry.
var errTenantEvicted = errors.New("cloud: tenant evicted during ingest; retry")

// ingestInto runs the insert, and — when the tenant was evicted while
// it ran — recovers by reopening the tenant and re-running the insert
// against the live store, so the caller's ack always describes a
// store the registry tracks. The eviction's snapshot may or may not
// have captured the first attempt: if it did, the rerun's
// duplicate-ID refusal proves the record is already in the reloaded
// store and is acknowledged as such; if not, the rerun inserts it
// afresh. Only repeated eviction collisions surface as an error.
//
// With a WAL enabled, each attempt journals the wire payload BEFORE
// inserting: under wal.SyncAlways the acknowledgement this returns
// implies the recording is on stable storage. payload is the encoded
// TypeIngest payload when the caller has it (the wire path); nil makes
// ingestInto encode it itself. A WAL disk failure fails the request —
// durability was promised and cannot be delivered — while an
// eviction-raced append retries like any other eviction collision. A
// retried attempt may journal the record twice (possibly once in a log
// a checkpoint then empties); replay skips duplicates, so at-least-once
// journaling is safe.
func (e *Engine) ingestInto(t *tenant, ing *proto.Ingest, payload []byte) (*proto.IngestAck, error) {
	if e.registry.WALEnabled() && payload == nil {
		payload = proto.EncodeIngest(ing)
	}
	for attempt := 0; ; attempt++ {
		if e.registry.WALEnabled() {
			if werr := e.registry.AppendWAL(t.id, payload); werr != nil {
				if !errors.Is(werr, mdb.ErrTenantNotResident) {
					return nil, fmt.Errorf("cloud: journaling ingest: %w", werr)
				}
				// Eviction closed the log under us; reopen and retry.
				if attempt >= 2 {
					return nil, fmt.Errorf("%w (tenant %q)", errTenantEvicted, t.id)
				}
				fresh, terr := e.tenantFor(t.id)
				if terr != nil {
					return nil, fmt.Errorf("%w (tenant %q): %v", errTenantEvicted, t.id, terr)
				}
				t = fresh
				continue
			}
		}
		ack, err := t.ingest(ing, e.cfg)
		if err != nil {
			if attempt > 0 {
				// The reopened store may already hold the record —
				// the evicted snapshot captured the first attempt.
				if existing, ok := t.ackExisting(ing); ok {
					ack, err = existing, nil
				}
			}
			if err != nil {
				return nil, err
			}
		}
		if cur, ok := e.registry.Get(t.id); ok && cur == t.store {
			e.Metrics.Ingests.Add(1)
			e.Metrics.IngestedSets.Add(int64(ack.Sets))
			return ack, nil
		}
		if attempt >= 2 {
			return nil, fmt.Errorf("%w (tenant %q)", errTenantEvicted, t.id)
		}
		fresh, terr := e.tenantFor(t.id)
		if terr != nil {
			return nil, fmt.Errorf("%w (tenant %q): %v", errTenantEvicted, t.id, terr)
		}
		t = fresh
	}
}

// Search answers one upload against the default tenant: run Algorithm
// 1 and return the correlation set with continuation samples — the
// message a client decodes from the wire reply to the same upload, its
// samples copied out of the store. It is safe for concurrent use. It
// bypasses the batching collector and the cache — the network path adds
// those; Search is the direct, always-fresh surface.
func (e *Engine) Search(upload *proto.Upload) (*proto.CorrSet, error) {
	return e.SearchTenant("", upload)
}

// SearchTenant answers one upload against the named tenant's store
// ("" = default tenant), opening it if needed.
func (e *Engine) SearchTenant(tenantID string, upload *proto.Upload) (*proto.CorrSet, error) {
	t, err := e.tenantFor(tenantID)
	if err != nil {
		return nil, err
	}
	res, err := t.searcher.Algorithm1Counts(search.Counts{Samples: upload.Samples, Scale: upload.Scale})
	if err != nil {
		return nil, err
	}
	e.Metrics.Evaluations.Add(int64(res.Evaluated))
	t.metrics.Evaluations.Add(int64(res.Evaluated))
	return e.selectEntries(t, res, len(upload.Samples)).corrSet(upload.Seq), nil
}

// Ingest inserts one preprocessed recording into the named tenant's
// store ("" = default tenant) — the in-process twin of the TypeIngest
// wire message.
func (e *Engine) Ingest(tenantID string, ing *proto.Ingest) (*proto.IngestAck, error) {
	t, err := e.tenantFor(tenantID)
	if err != nil {
		return nil, err
	}
	return e.ingestInto(t, ing, nil)
}
