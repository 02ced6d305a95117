package emap

import (
	"context"

	"emap/internal/cloud"
	"emap/internal/core"
	"emap/internal/mdb"
	"emap/internal/pipeline"
	"emap/internal/search"
)

// Streaming API re-exports: the context-first surface added by the v2
// API redesign (see DESIGN.md §3). A Stream consumes one-second
// windows via Push and emits a StepReport per window.
type (
	// Window is one acquisition slot of raw EEG samples.
	Window = core.Window
	// Stream is a live monitoring run (Session.Start).
	Stream = core.Stream
	// StepReport is the per-window outcome a Stream emits.
	StepReport = core.StepReport
	// IterStat records one tracking iteration in a Report.
	IterStat = core.IterStat
	// CostModel assigns simulated durations to compute steps.
	CostModel = core.CostModel
)

// ErrStreamClosed is returned by Stream.Push after Close.
var ErrStreamClosed = core.ErrStreamClosed

// Option adjusts a Session's configuration. Options replace hand-rolled
// Config literals: zero-value fields keep the paper's defaults, and
// each option overrides exactly one knob.
type Option func(*Config)

// WithSearchParams configures the cloud search (Algorithm 1).
func WithSearchParams(p SearchParams) Option {
	return func(c *Config) { c.Search = p }
}

// WithLink selects the edge↔cloud communication platform.
func WithLink(l Link) Option {
	return func(c *Config) { c.Link = l }
}

// WithHorizon sets the continuation horizon downloaded per matched
// signal, in seconds (paper default 8 s).
func WithHorizon(seconds float64) Option {
	return func(c *Config) { c.HorizonSeconds = seconds }
}

// WithRecallMargin sets how many iterations before horizon exhaustion
// the background cloud call is issued (default 3).
func WithRecallMargin(iters int) Option {
	return func(c *Config) { c.RecallMargin = iters }
}

// Multi-channel & multi-modal re-exports (DESIGN.md §15): StartMulti
// fans N channels out to per-channel acquisition stages and fans back
// in to a K-of-N agreement stage gating the alarm.
type (
	// MultiWindow is one acquisition slot across all channels.
	MultiWindow = core.MultiWindow
	// MultiStream is a live multi-channel run (Session.StartMulti).
	MultiStream = core.MultiStream
	// MultiStepReport is the per-slot outcome a MultiStream emits.
	MultiStepReport = core.MultiStepReport
	// MultiReport is a multi-channel session's batch outcome.
	MultiReport = core.MultiReport
	// ChannelStat is one channel's state within a MultiStepReport.
	ChannelStat = core.ChannelStat
	// ChannelReport summarises one channel in a MultiReport.
	ChannelReport = core.ChannelReport
	// StageStats is a pipeline stage's counter snapshot
	// (Stream.Stats / MultiStream.Stats).
	StageStats = pipeline.StageStats
)

// WithChannels sets how many channels a multi-channel session
// (Session.StartMulti) monitors concurrently (default 1).
func WithChannels(n int) Option {
	return func(c *Config) { c.Channels = n }
}

// WithAgreement sets K of the K-of-N cross-channel agreement rule:
// the alarm raises only while at least K channel predictors concur
// (default: a strict majority of the channels).
func WithAgreement(k int) Option {
	return func(c *Config) { c.Agreement = k }
}

// WithModality labels the signal kind the session monitors ("eeg"
// default, "ecg" for the heart-rate tier). The label flows into
// reports; training data and tenant routing carry the semantics.
func WithModality(m string) Option {
	return func(c *Config) { c.Modality = m }
}

// New prepares a monitoring session over a mega-database with
// functional options; unset knobs keep the paper's defaults.
//
//	sess, err := emap.New(store,
//	    emap.WithHorizon(12),
//	    emap.WithRecallMargin(2),
//	)
//	stream, err := sess.Start(ctx)
func New(store *Store, opts ...Option) (*Session, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.NewSession(store, cfg)
}

// Cloud-tier re-exports: the networked serving surface, so embedding a
// cloud server needs only the root import. CloudConfig's batching
// knobs (MaxBatch, BatchWindow) and correlation-set cache (CacheSize)
// are what let one store serve many concurrent edges at one shard
// pass per batch — see internal/cloud and DESIGN.md §5. A server is
// multi-tenant: a Registry of live tenant stores replaces the single
// frozen store, requests route by the tenant ID in each frame, and tenants
// ingest recordings while being searched (DESIGN.md §9).
type (
	// CloudConfig parameterises a cloud server (zero values take
	// paper defaults).
	CloudConfig = cloud.Config
	// CloudServer serves edge uploads over TCP.
	CloudServer = cloud.Server
	// CloudMetrics exposes a server's counters, including
	// BatchSizeMean and the cache hit/miss totals; per-tenant
	// breakdowns come from CloudServer.MetricsFor.
	CloudMetrics = cloud.Metrics
	// BatchSearchResult is the outcome of a batched multi-query
	// search (Searcher.AlgorithmN).
	BatchSearchResult = search.BatchResult
	// Registry manages the live tenant stores of one cloud process:
	// lazy snapshot loads, LRU eviction with persistence, shutdown
	// flush.
	Registry = mdb.Registry
	// StoreSnapshot is an immutable epoch of a Store; searches over
	// a snapshot are unaffected by concurrent Inserts.
	StoreSnapshot = mdb.Snapshot
)

// DefaultTenant is the tenant that requests with an empty tenant field
// are routed to.
const DefaultTenant = cloud.DefaultTenant

// NewRegistry returns a tenant-store registry persisting snapshots
// under dir ("" = memory-only) and holding at most max open stores
// (≤0: unbounded). Serve it with NewCloudFromRegistry, or let NewCloud
// assemble registry and server together.
func NewRegistry(dir string, max int) (*Registry, error) {
	return mdb.NewRegistry(dir, max)
}

// NewCloudFromRegistry returns a multi-tenant cloud server over a
// registry the caller assembled (pre-seeded tenants via
// Registry.Adopt, custom directory layout, shared with operator
// tooling). Most deployments can use NewCloud instead.
func NewCloudFromRegistry(reg *Registry, cfg CloudConfig) (*CloudServer, error) {
	return cloud.NewRegistryServer(reg, cfg)
}

// NewCloudServer returns a cloud server over the given mega-database,
// installed as the default tenant of an in-memory registry. The store
// may be nil or empty — tenants may start empty and fill via ingest.
// Serve it with net.Listen + srv.Serve, stop it with Shutdown:
//
//	srv, _ := emap.NewCloudServer(store, emap.CloudConfig{})
//	l, _ := net.Listen("tcp", ":7300")
//	go srv.Serve(l)
func NewCloudServer(store *Store, cfg CloudConfig) (*CloudServer, error) {
	return cloud.NewServer(store, cfg)
}

// cloudSetup is the deployment NewCloud assembles from CloudOptions.
type cloudSetup struct {
	dir string
	max int
}

// CloudOption adjusts a multi-tenant cloud deployment assembled by
// NewCloud.
type CloudOption func(*cloudSetup)

// WithRegistryDir persists tenant stores as snapshot files under dir:
// tenants load lazily from their snapshot on first use, evicted and
// shut-down tenants are saved back.
func WithRegistryDir(dir string) CloudOption {
	return func(s *cloudSetup) { s.dir = dir }
}

// WithMaxTenants bounds how many tenant stores stay open at once;
// opening one more evicts the least recently used (persisting it when
// a registry directory is configured). ≤0 means unbounded.
func WithMaxTenants(n int) CloudOption {
	return func(s *cloudSetup) { s.max = n }
}

// NewCloud assembles a multi-tenant cloud server: a tenant registry
// (optionally disk-backed and bounded) serving many independently
// growing stores from one process, with the paper's serving defaults.
// A non-nil store seeds DefaultTenant; further tenants open lazily as
// requests name them. Deployments that tune the server assemble a
// Registry and call NewCloudFromRegistry.
//
//	srv, _ := emap.NewCloud(store,
//	    emap.WithRegistryDir("/var/lib/emap/tenants"),
//	    emap.WithMaxTenants(64),
//	)
func NewCloud(store *Store, opts ...CloudOption) (*CloudServer, error) {
	var s cloudSetup
	for _, opt := range opts {
		opt(&s)
	}
	reg, err := mdb.NewRegistry(s.dir, s.max)
	if err != nil {
		return nil, err
	}
	if store != nil {
		if err := reg.Adopt(DefaultTenant, store); err != nil {
			return nil, err
		}
	}
	return cloud.NewRegistryServer(reg, CloudConfig{})
}

// Monitor is a convenience wrapper for fully streaming use: it starts
// a stream over sess, feeds it windows from ch, and returns the
// per-window reports channel plus a wait function that closes the
// stream and yields the final report. The session's predictor and
// simulated clock persist across runs — pass a fresh session for an
// independent run. It exists so callers can wire a live source to the
// pipeline in two lines.
func Monitor(ctx context.Context, sess *Session, ch <-chan Window) (<-chan StepReport, func() (*Report, error), error) {
	stream, err := sess.Start(ctx)
	if err != nil {
		return nil, nil, err
	}
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var pushErr error
		for w := range ch {
			if pushErr == nil {
				pushErr = stream.Push(w)
				// Keep draining ch so the producer never
				// blocks on a dead stream.
			}
		}
		rep, err := stream.Close()
		if err == nil && pushErr != nil {
			rep, err = nil, pushErr
		}
		done <- outcome{rep, err}
	}()
	wait := func() (*Report, error) {
		o := <-done
		return o.rep, o.err
	}
	return stream.Reports(), wait, nil
}
