// Package cloud implements the cloud tier of the EMAP framework as a
// network service: it hosts the mega-database, answers each uploaded
// one-second window with the top-K signal correlation set (Algorithm
// 1), and attaches to every match the continuation samples the edge
// needs for local tracking — the payload whose download time Fig. 4b
// budgets at under 200 ms for 100 signals.
//
// One server process serves many tenants: a registry of live tenant
// stores (internal/mdb.Registry) replaces the single frozen store, so
// each patient cohort owns an independently growing mega-database.
// Every frame carries a tenant ID and routes to that tenant's store; an
// empty tenant field lands on the default tenant. A TypeIngest message
// pushes a preprocessed recording into the tenant's store while that
// same store is being searched — the store's epoch snapshots keep
// in-flight scans stable (see internal/mdb).
//
// The package is layered so the cluster tier (internal/cluster) can
// recombine the pieces: Transport (transport.go) owns the connection
// machinery — listener, per-connection reader/writer goroutines, the
// Hello connect check, pipelining — and serves frames through any
// FrameHandler; Engine (engine.go) is the canonical handler — the
// tenant registry, per-tenant serving state, and the shared worker
// pool — with no networking of its own. Server composes the two, and
// is what single-process deployments use.
//
// Every frame carries a request ID (see internal/proto), so each
// connection runs a reader goroutine that hands uploads to a bounded
// set of worker goroutines the connection keeps, and a single writer
// goroutine that drains a response queue — independent windows search
// in parallel and replies may leave out of order.
//
// Two scan-once-serve-many layers sit between an upload and the shard
// scan, both per-tenant. A group-commit batching collector (batch.go)
// coalesces the same-tenant uploads queued behind busy workers into
// one multi-query search (search.AlgorithmN), so N in-flight windows
// cost one pass of memory bandwidth per signal-set instead of N;
// Config.MaxBatch bounds the coalescing and Config.BatchWindow
// optionally trades latency for bigger batches. In front of the
// collector, a bounded LRU cache (cache.go) keyed by a quantized
// fingerprint of the window answers repeated near-identical uploads —
// the tracking-loop steady state — without any scan at all; each
// tenant owns its cache, so cached sets can never cross patients'
// stores, and an ingest flushes only its own tenant's cache.
//
// Behind both there is one reply route (selection.go). A correlation
// set is a selection over the store — per match the entry's wire header
// and which record's counts, from where, how many — built from the
// search result without reading a sample. The batch that scanned, the
// requests it deduplicated and the cache share that one immutable
// value; each request encodes its own reply from it exactly once,
// straight from the records' int16 counts wherever they reside at that
// moment, into a pooled buffer of exactly the reply's size. What the
// edge receives is therefore the mega-database's own counts and scales,
// bit for bit. Engine.SearchTenant, whose caller holds no record, gets
// the same entries copied out.
package cloud

import (
	"context"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"emap/internal/iofault"
	"emap/internal/mdb"
	"emap/internal/search"
	"emap/internal/wal"
)

// Config parameterises the cloud service.
type Config struct {
	// Search configures Algorithm 1 (zero values take paper
	// defaults).
	Search search.Params
	// HorizonSeconds is the continuation horizon sent per match
	// (default 8 s).
	HorizonSeconds float64
	// BaseRate is the sampling rate (default 256 Hz).
	BaseRate float64
	// SliceLen is the signal-set length ingested recordings are
	// sliced into (default 1000, paper §V-B).
	SliceLen int
	// Workers bounds how many uploads search concurrently across
	// all connections and tenants (default GOMAXPROCS).
	Workers int
	// MaxInFlight bounds how many uploads one connection may have
	// queued or searching (default 4×Workers). When a client
	// pipelines past this, the reader stops consuming frames and
	// TCP backpressure does the rest — goroutines and held payloads
	// stay bounded.
	MaxInFlight int
	// MaxBatch bounds how many queued same-tenant uploads one
	// batched search pass may serve (default 32). 1 disables
	// coalescing: every upload scans alone, the pre-batching
	// behaviour.
	MaxBatch int
	// BatchWindow is how long a batch leader waits for further
	// uploads to join before searching. The default (0) adds no
	// artificial delay: a lone request on an idle server searches
	// immediately, and batches still form naturally from whatever
	// queues behind busy workers.
	BatchWindow time.Duration
	// CacheSize bounds each tenant's correlation-set cache in
	// entries (default 256). Negative disables caching. An entry is
	// its 512 B key and a selection over the store, ≈ 50 B per match
	// (≈ 5 kB for a top-100 set) — not the ≈ 100–400 kB of samples
	// the reply encodes.
	CacheSize int
	// TenantRate admits at most this many requests per second per
	// tenant (token bucket; refusals answer CodeRateLimited). 0
	// disables per-tenant rate limiting.
	TenantRate float64
	// TenantBurst is the token-bucket depth when TenantRate is set
	// (default max(8, TenantRate): one second of headroom).
	TenantBurst int
	// ShedQueue enables load shedding: when this many uploads are
	// queued for or occupying the worker pool, further
	// routine-priority uploads are refused with CodeShed instead of
	// queueing behind the backlog; anomaly-priority uploads (see
	// proto.PriAnomaly) and cache hits are always served. 0 disables
	// shedding.
	ShedQueue int
	// HotBytes caps, per tenant, the bytes store records may hold
	// promoted above their int16 payload: heap copies of memory-mapped
	// counts, which is all there is to promote since no record has a
	// float64 form. 0 makes no copies — a mapped tenant is scanned out
	// of the page cache. See mdb.Store.SetTierBudget.
	HotBytes int64
	// StoreFormat is 0 or mdb.FormatColumnar, the only snapshot format;
	// anything else is a configuration error. The field stays because
	// the benchmark harness (bench/) sets it.
	StoreFormat mdb.Format
	// WALDir, when set, makes ingest crash-safe: every accepted
	// TypeIngest is journaled to a per-tenant write-ahead log in this
	// directory BEFORE it is inserted (and, under WALSync=always,
	// before it is acknowledged), and tenant opens replay the log over
	// the snapshot — so acknowledged recordings survive a kill -9
	// between persists. Empty disables the WAL.
	WALDir string
	// WALSync is the log fsync policy (default wal.SyncAlways: ack
	// after durable); WALSyncInterval is the wal.SyncInterval cadence.
	WALSync         wal.Policy
	WALSyncInterval time.Duration
	// WALFS overrides the filesystem the logs live on; durability
	// tests inject an iofault.Faulty here. Nil uses the real OS.
	WALFS iofault.FS
	// IdleTimeout, when positive, reaps connections that deliver no
	// frame for this long — the slow-loris guard. Disabled by default
	// (netsim tests hold idle pipes open by design).
	IdleTimeout time.Duration
	// DefaultTenant is the tenant that frames with an empty tenant
	// field land on (default "default").
	DefaultTenant string
	// Logger receives per-connection diagnostics; nil disables
	// logging.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.HorizonSeconds <= 0 {
		c.HorizonSeconds = 8
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 256
	}
	if c.SliceLen <= 0 {
		c.SliceLen = 1000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * c.Workers
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.DefaultTenant == "" {
		c.DefaultTenant = DefaultTenant
	}
	return c
}

// transportConfig derives the connection-layer slice of a Config.
func (c Config) TransportConfig(m *Metrics) TransportConfig {
	return TransportConfig{
		MaxInFlight: c.MaxInFlight,
		IdleTimeout: c.IdleTimeout,
		Logger:      c.Logger,
		Metrics:     m,
	}
}

// Metrics counts server activity (all fields atomic). The server
// keeps one registry-wide Metrics plus one per tenant (MetricsFor).
type Metrics struct {
	Connections atomic.Int64
	Requests    atomic.Int64
	Errors      atomic.Int64
	// InFlight is the number of uploads currently queued or
	// searching; PeakInFlight is its high-water mark.
	InFlight     atomic.Int64
	PeakInFlight atomic.Int64
	// RequestNanos accumulates per-request service time (decode →
	// reply queued); RequestNanos/Requests is the mean latency.
	RequestNanos atomic.Int64
	// Batches counts batched search passes; BatchedRequests counts
	// the uploads they served, so BatchedRequests/Batches is the
	// mean coalescing factor (see BatchSizeMean).
	Batches         atomic.Int64
	BatchedRequests atomic.Int64
	// CacheHits and CacheMisses count correlation-set cache lookups
	// for cacheable uploads.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// Evaluations accumulates ω evaluations performed by the shard
	// scans — the memory-bandwidth cost batching and caching exist
	// to amortize.
	Evaluations atomic.Int64
	// Ingests counts recordings inserted via TypeIngest;
	// IngestedSets counts the signal-sets they produced.
	Ingests      atomic.Int64
	IngestedSets atomic.Int64
	// SearchBacklog is the number of uploads currently queued for or
	// occupying the worker pool (cache hits never enter it); it is
	// the saturation signal admission control sheds on.
	SearchBacklog atomic.Int64
	// RateLimited counts requests refused by the per-tenant token
	// bucket (CodeRateLimited); Shed counts routine-priority uploads
	// refused under saturation (CodeShed).
	RateLimited atomic.Int64
	Shed        atomic.Int64
	// Panics counts handler panics recovered by the transport and the
	// batch leader: each failed exactly one request with a 5xx-class
	// error while the worker pool kept serving.
	Panics atomic.Int64
	// PersistErrors counts eviction-time snapshot persists that failed
	// (the tenant slot survives and the persist retries on the next
	// eviction pass).
	PersistErrors atomic.Int64
	// IdleReaped counts connections closed by the idle read deadline
	// (Config.IdleTimeout) — stalled half-open peers, not drains.
	IdleReaped atomic.Int64
}

// MetricsSnapshot is a plain-value copy of a Metrics, taken field by
// field with atomic loads — the race-safe way to read the whole
// struct at once (individual counters may still advance between
// loads; no field is ever torn).
type MetricsSnapshot struct {
	Connections     int64
	Requests        int64
	Errors          int64
	InFlight        int64
	PeakInFlight    int64
	SearchBacklog   int64
	RateLimited     int64
	Shed            int64
	Batches         int64
	BatchedRequests int64
	CacheHits       int64
	CacheMisses     int64
	Evaluations     int64
	Ingests         int64
	IngestedSets    int64
	Panics          int64
	PersistErrors   int64
	IdleReaped      int64
	// MeanLatency and BatchSizeMean are the derived figures of the
	// same-named methods, computed from the snapshot's own loads.
	MeanLatency   time.Duration
	BatchSizeMean float64
}

// Snapshot returns a race-safe copy of every counter and gauge.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Connections:     m.Connections.Load(),
		Requests:        m.Requests.Load(),
		Errors:          m.Errors.Load(),
		InFlight:        m.InFlight.Load(),
		PeakInFlight:    m.PeakInFlight.Load(),
		SearchBacklog:   m.SearchBacklog.Load(),
		RateLimited:     m.RateLimited.Load(),
		Shed:            m.Shed.Load(),
		Batches:         m.Batches.Load(),
		BatchedRequests: m.BatchedRequests.Load(),
		CacheHits:       m.CacheHits.Load(),
		CacheMisses:     m.CacheMisses.Load(),
		Evaluations:     m.Evaluations.Load(),
		Ingests:         m.Ingests.Load(),
		IngestedSets:    m.IngestedSets.Load(),
		Panics:          m.Panics.Load(),
		PersistErrors:   m.PersistErrors.Load(),
		IdleReaped:      m.IdleReaped.Load(),
	}
	if nanos := m.RequestNanos.Load(); s.Requests > 0 {
		s.MeanLatency = time.Duration(nanos / s.Requests)
	}
	if s.Batches > 0 {
		s.BatchSizeMean = float64(s.BatchedRequests) / float64(s.Batches)
	}
	return s
}

// MeanLatency returns the mean per-request service time.
func (m *Metrics) MeanLatency() time.Duration {
	n := m.Requests.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(m.RequestNanos.Load() / n)
}

// BatchSizeMean returns the mean number of uploads served per batched
// search pass, or 0 before the first pass.
func (m *Metrics) BatchSizeMean() float64 {
	n := m.Batches.Load()
	if n == 0 {
		return 0
	}
	return float64(m.BatchedRequests.Load()) / float64(n)
}

func (m *Metrics) enterFlight() {
	n := m.InFlight.Add(1)
	for {
		peak := m.PeakInFlight.Load()
		if n <= peak || m.PeakInFlight.CompareAndSwap(peak, n) {
			return
		}
	}
}

func (m *Metrics) leaveFlight() { m.InFlight.Add(-1) }

// Server is the cloud tier as one process: a tenant Engine behind its
// own Transport. Engine methods (Search, Ingest, MetricsFor, Tenants,
// Registry, the Metrics field) promote through the embedding; the
// transport methods below put the engine on the wire.
type Server struct {
	*Engine
	tr *Transport
}

// NewServer returns a single-tenant server over the given
// mega-database, which becomes the default tenant of an in-memory
// registry. The store may be nil or empty: a tenant may start empty
// and fill via ingest, and searches against an empty store return an
// empty correlation set.
func NewServer(store *mdb.Store, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if store == nil {
		store = mdb.NewStore()
	}
	reg, err := mdb.NewRegistry("", 0)
	if err != nil {
		return nil, err
	}
	// Build the server (which enables the WAL on the registry when
	// configured) BEFORE adopting the default tenant, so the adopted
	// store replays its journal and gets a live log like any other.
	srv, err := NewRegistryServer(reg, cfg)
	if err != nil {
		return nil, err
	}
	if err := reg.Adopt(cfg.DefaultTenant, store); err != nil {
		return nil, fmt.Errorf("cloud: adopting default tenant: %w", err)
	}
	return srv, nil
}

// NewRegistryServer returns a multi-tenant server over the given
// tenant registry. Stores open lazily as requests name them; requests
// with an empty tenant field land on Config.DefaultTenant.
func NewRegistryServer(reg *mdb.Registry, cfg Config) (*Server, error) {
	eng, err := NewEngine(reg, cfg)
	if err != nil {
		return nil, err
	}
	// Engine and transport share one Metrics: the transport counts
	// connections and request flight, the engine counts everything
	// else, and callers read it all off Server.Metrics.
	return &Server{
		Engine: eng,
		tr:     NewTransport(eng, eng.cfg.TransportConfig(&eng.Metrics)),
	}, nil
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error { return s.tr.Serve(l) }

// HandleConn serves one edge connection until it fails, the peer
// disconnects, or the server drains.
func (s *Server) HandleConn(conn net.Conn) { s.tr.HandleConn(conn) }

// Close stops the accept loop and terminates active connections
// immediately, abandoning any in-flight replies.
func (s *Server) Close() error {
	s.Engine.Stop()
	return s.tr.Close()
}

// Shutdown drains the server gracefully: it stops accepting, stops
// reading new requests, lets every in-flight search complete and its
// reply flush, then closes the connections. If ctx expires first the
// remaining connections are closed hard and ctx.Err() is returned.
// Persisting tenant stores is the registry's job (Registry().Close()).
func (s *Server) Shutdown(ctx context.Context) error {
	s.Engine.Stop()
	return s.tr.Shutdown(ctx)
}
