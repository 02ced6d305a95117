package cloud

import (
	"sync"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
)

// DefaultTenant is the tenant that frames with an empty tenant field
// land on.
const DefaultTenant = "default"

// tenant is one tenant's complete serving state: its live store, the
// searcher over it, its private correlation-set cache, its own batch
// collector (uploads only coalesce with same-tenant uploads — one
// batched pass walks exactly one tenant's shards), and its metrics.
// Caches and metrics are per-tenant so cached correlation sets can
// never leak across patients' stores and per-tenant load is
// observable.
type tenant struct {
	id       string
	store    *mdb.Store
	searcher *search.Searcher
	cache    *corrCache   // nil when caching is disabled
	limiter  *tokenBucket // nil when rate limiting is disabled

	batchMu sync.Mutex
	forming *batchGroup // open batch accepting same-tenant joiners

	metrics Metrics
}

// newTenant assembles the serving state for one tenant store.
func newTenant(id string, store *mdb.Store, cfg Config) *tenant {
	t := &tenant{id: id, store: store, searcher: search.NewSearcher(store, cfg.Search)}
	if cfg.CacheSize > 0 {
		t.cache = newCorrCache(cfg.CacheSize)
	}
	if cfg.TenantRate > 0 {
		t.limiter = newTokenBucket(cfg.TenantRate, cfg.TenantBurst, nil)
	}
	return t
}

// ackExisting builds the acknowledgement for a recording that is
// already in the tenant's store — the eviction-recovery path where an
// earlier attempt's insert reached the persisted snapshot (see
// Server.ingestInto).
func (t *tenant) ackExisting(g *proto.Ingest) (*proto.IngestAck, bool) {
	snap := t.store.Snapshot()
	if _, ok := snap.Record(g.RecordID); !ok {
		return nil, false
	}
	sets := 0
	for _, set := range snap.Sets() {
		if set.RecordID == g.RecordID {
			sets++
		}
	}
	return &proto.IngestAck{
		Seq:          g.Seq,
		Sets:         uint32(sets),
		TotalSets:    uint32(snap.NumSets()),
		TotalRecords: uint32(snap.NumRecords()),
	}, true
}

// insertIngest inserts one decoded recording into a store, slicing and
// labelling it per cfg, and returns the signal-sets created. It is the
// shared insert core of the live ingest path (tenant.ingest) and WAL
// replay (applyWALIngest) — both must store byte-identical data, or a
// recovered store would answer searches differently from the store
// that acknowledged the ingest.
func insertIngest(store *mdb.Store, g *proto.Ingest, cfg Config) (int, error) {
	rec := &mdb.Record{
		ID:        g.RecordID,
		Class:     synth.ClassFromCode(g.Class),
		Archetype: int(g.Archetype),
		Onset:     int(g.Onset),
	}
	labelFn := mdb.LabelFor(rec, mdb.BuildConfig{BaseRate: cfg.BaseRate})
	// The wire counts ARE the record: no dequantize, no float copy.
	return store.InsertQuantized(rec, g.Samples, g.Scale, cfg.SliceLen, labelFn)
}

// ingest inserts one preprocessed recording into the tenant's store,
// slicing and labelling it, and flushes the correlation-set cache:
// cached sets predate the new data, and a search issued after a
// successful ingest must be able to retrieve it.
func (t *tenant) ingest(g *proto.Ingest, cfg Config) (*proto.IngestAck, error) {
	created, err := insertIngest(t.store, g, cfg)
	if err != nil {
		return nil, err
	}
	if t.cache != nil {
		t.cache.reset()
	}
	t.metrics.Ingests.Add(1)
	t.metrics.IngestedSets.Add(int64(created))
	snap := t.store.Snapshot()
	return &proto.IngestAck{
		Seq:          g.Seq,
		Sets:         uint32(created),
		TotalSets:    uint32(snap.NumSets()),
		TotalRecords: uint32(snap.NumRecords()),
	}, nil
}
