// Package fleet is the load harness: it drives thousands of simulated
// edge devices against a cloud server (or the cluster router), shapes
// the offered load the way a deployed fleet would — mixed tenant
// sizes, a diurnal curve, an anomaly storm — injects a network
// partition mid-run through the netsim fault injector, and distils
// the run into a machine-readable SLO report (latency quantiles,
// degraded-time fraction, heal-to-readoption time, shed and error
// counts). cmd/emap-fleet is the CLI; CI runs a smoke configuration
// and publishes the report as BENCH_fleet.json.
//
// Two modes share every code path above the dial. In netsim mode the
// harness hosts the cloud server in-process and each device's client
// dials through ClientOptions.Dialer, minting a net.Pipe straight
// into Server.HandleConn — no sockets, so a thousand devices fit in
// one process far below the fd limit — with the client side of every
// pipe wrapped by a netsim.Partition so chaos is one method call. In
// tcp mode devices dial a real address (a running emap-cloud or
// emap-router) and the partition flags are rejected: cutting a live
// deployment's network is not the harness's job.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/cloud"
	"emap/internal/edge"
	"emap/internal/mdb"
	"emap/internal/netsim"
	"emap/internal/proto"
	"emap/internal/synth"
	"emap/internal/wal"
)

// Mode selects how devices reach the service under test.
type Mode string

const (
	// ModeNetsim hosts the server in-process and pipes devices into it.
	ModeNetsim Mode = "netsim"
	// ModeTCP dials a running service at Config.Addr.
	ModeTCP Mode = "tcp"
)

// Config parameterises a fleet run.
type Config struct {
	// Devices is the fleet size (default 100).
	Devices int
	// Duration is how long devices keep uploading (default 10s).
	Duration time.Duration
	// Mode selects netsim (default) or tcp.
	Mode Mode
	// Addr is the service address (tcp mode only).
	Addr string
	// Tenants spreads devices over this many tenants with a skewed
	// (Zipf-like) size distribution, the mixed-cohort shape a real
	// deployment has (default 4).
	Tenants int
	// Interval is the mean per-device upload interval (default 1s);
	// each device jitters around it.
	Interval time.Duration
	// RequestTimeout bounds one upload exchange (default 5s).
	RequestTimeout time.Duration
	// Diurnal modulates the offered load sinusoidally over the run —
	// a compressed day — so the server sees a trough and a peak
	// instead of a flat line.
	Diurnal bool
	// StormAt starts an anomaly storm at this offset: StormFraction
	// of the fleet turns anomalous for StormDuration, uploading at
	// anomaly priority and twice the rate. Zero disables the storm.
	StormAt       time.Duration
	StormDuration time.Duration
	StormFraction float64
	// ChaosAt splits the network (netsim mode only) at this offset;
	// HealAt heals it. The report then includes heal-to-readoption
	// times. Zero ChaosAt disables chaos.
	ChaosAt time.Duration
	HealAt  time.Duration
	// CrashAt hard-restarts the in-process cloud at this offset
	// (netsim mode only): the transport is torn down without closing
	// the registry — a process kill — and a fresh server is rebuilt
	// over the same snapshot and WAL directories, once at least one
	// upload has failed against the dead transport (an outage no device
	// noticed would test nothing; at fleet rates the wait is one upload
	// interval at most). During such a run devices ingest recordings
	// alongside their uploads, every acknowledged ingest is tracked,
	// and the report accounts each one as survived or lost after
	// recovery. Zero disables the crash.
	CrashAt time.Duration
	// Seed makes runs reproducible (default 1).
	Seed int64
	// SeedRecords ingests this many synthetic recordings into every
	// tenant's store before the run (netsim mode only; default 2,
	// negative disables), so searches scan a real mega-database
	// instead of answering instantly against an empty one.
	SeedRecords int
	// Workers, ShedQueue, TenantRate and TenantBurst configure the
	// in-process server (netsim mode only); zero values take the
	// cloud defaults (admission control disabled).
	Workers     int
	ShedQueue   int
	TenantRate  float64
	TenantBurst int
	// StoreFormat and HotBytes configure the in-process server's
	// tenant stores (netsim mode only): FormatColumnar persists them in
	// the format that loads memory-mapped, and a positive HotBytes
	// budgets heap copies of mapped records — together they run the
	// fleet against tiered stores instead of fully heap-resident ones.
	StoreFormat mdb.Format
	HotBytes    int64
	// Logger receives run narration; nil disables it.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Devices <= 0 {
		c.Devices = 100
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Mode == "" {
		c.Mode = ModeNetsim
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.StormFraction <= 0 {
		c.StormFraction = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SeedRecords == 0 {
		c.SeedRecords = 2
	}
	return c
}

func (c Config) validate() error {
	switch c.Mode {
	case ModeNetsim:
		if c.Addr != "" {
			return errors.New("fleet: -addr is a tcp-mode flag")
		}
	case ModeTCP:
		if c.Addr == "" {
			return errors.New("fleet: tcp mode needs an address")
		}
		if c.ChaosAt > 0 {
			return errors.New("fleet: chaos injection needs netsim mode (the harness will not cut a live deployment's network)")
		}
		if c.CrashAt > 0 {
			return errors.New("fleet: -crash-at needs netsim mode (the harness restarts only its own in-process cloud)")
		}
	default:
		return fmt.Errorf("fleet: unknown mode %q (want netsim or tcp)", c.Mode)
	}
	if c.ChaosAt > 0 && c.HealAt <= c.ChaosAt {
		return errors.New("fleet: -heal-at must come after -chaos-at")
	}
	return nil
}

// LatencySummary are the quantiles of one latency population, in
// milliseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// ChaosReport is the partition half of the SLO report.
type ChaosReport struct {
	SplitAtSeconds float64 `json:"split_at_seconds"`
	HealAtSeconds  float64 `json:"heal_at_seconds"`
	// Drops and Severed come from the fault injector: I/O operations
	// failed and connections killed by the split (proof the fault
	// actually bit).
	Drops   int64 `json:"drops"`
	Severed int64 `json:"severed"`
	// ReadoptedDevices counts devices that were degraded across the
	// heal and completed an upload after it; the readoption figures
	// are how long after the heal that first success came.
	ReadoptedDevices int     `json:"readopted_devices"`
	ReadoptionP50Ms  float64 `json:"readoption_p50_ms"`
	ReadoptionMaxMs  float64 `json:"readoption_max_ms"`
}

// ClientSummary aggregates the fleet's connection metrics.
type ClientSummary struct {
	Dials        int64 `json:"dials"`
	DialFailures int64 `json:"dial_failures"`
	Reconnects   int64 `json:"reconnects"`
	ConnLost     int64 `json:"conn_lost"`
	Redirects    int64 `json:"redirects"`
}

// Report is the machine-readable outcome of a fleet run — what CI
// writes as BENCH_fleet.json.
type Report struct {
	Mode            Mode    `json:"mode"`
	Devices         int     `json:"devices"`
	Tenants         int     `json:"tenants"`
	DurationSeconds float64 `json:"duration_seconds"`

	Uploads     int64 `json:"uploads"`
	Successes   int64 `json:"successes"`
	Shed        int64 `json:"shed"`
	RateLimited int64 `json:"rate_limited"`
	Errors      int64 `json:"errors"`

	// Latency covers every successful upload; AnomalyLatency is the
	// anomaly-priority subset — the population admission control
	// protects.
	Latency        LatencySummary `json:"latency"`
	AnomalyLatency LatencySummary `json:"anomaly_latency"`

	// DegradedFraction is total degraded device-time (first failure
	// to next success) over total device-time.
	DegradedFraction float64 `json:"degraded_time_fraction"`

	Chaos      *ChaosReport           `json:"chaos,omitempty"`
	Durability *DurabilityReport      `json:"durability,omitempty"`
	Client     ClientSummary          `json:"client"`
	Cloud      *cloud.MetricsSnapshot `json:"cloud,omitempty"`
}

// DurabilityReport is the crash-restart half of the SLO report: every
// ingest the cloud acknowledged before the mid-run kill, checked
// against the recovered stores. A non-zero IngestLost is a durability
// bug — the acknowledgement promised the write was safe.
type DurabilityReport struct {
	CrashAtSeconds float64 `json:"crash_at_seconds"`
	IngestAcked    int64   `json:"ingest_acked"`
	IngestSurvived int64   `json:"ingest_survived"`
	IngestLost     int64   `json:"ingest_lost"`
}

// runner is one run's shared state.
type runner struct {
	cfg      Config
	start    time.Time
	healTime time.Time // zero when chaos is off

	srvMu sync.Mutex
	srv   *cloud.Server                 // netsim mode; nil mid-restart
	mkSrv func() (*cloud.Server, error) // netsim mode: (re)builds the server
	part  *netsim.Partition             // netsim mode
	dial  func(d *device) (*edge.Client, error)

	ingestAcked atomic.Int64
	ackMu       sync.Mutex
	acked       map[string][]string // tenant -> acknowledged record IDs

	uploads     atomic.Int64
	successes   atomic.Int64
	shed        atomic.Int64
	rateLimited atomic.Int64
	errCount    atomic.Int64
	// failed holds one token whenever an upload has failed since it was
	// last drained: what crashRestart waits on during the downtime.
	failed chan struct{}

	latAll     histogram
	latAnomaly histogram

	degradedNanos atomic.Int64

	mu          sync.Mutex
	readoptions []time.Duration

	clients struct {
		sync.Mutex
		all []*edge.Client
	}
}

// device is one simulated edge node. All its mutable state is owned
// by its goroutine; cross-device aggregation goes through the
// runner's atomics.
type device struct {
	id        int
	tenant    string
	rng       *rand.Rand
	stormRoll float64
	base      []float64
	client    *edge.Client
	ingestSeq int

	degradedSince time.Time // zero: healthy
}

// cloudSrv returns the current in-process server (nil in tcp mode or
// mid-restart).
func (r *runner) cloudSrv() *cloud.Server {
	r.srvMu.Lock()
	defer r.srvMu.Unlock()
	return r.srv
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf(format, args...)
	}
}

// Run executes one fleet run and returns its report. ctx cancels the
// run early (the report covers what ran).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, failed: make(chan struct{}, 1)}

	switch cfg.Mode {
	case ModeNetsim:
		srvCfg := cloud.Config{
			Workers:     cfg.Workers,
			ShedQueue:   cfg.ShedQueue,
			TenantRate:  cfg.TenantRate,
			TenantBurst: cfg.TenantBurst,
			StoreFormat: cfg.StoreFormat,
			HotBytes:    cfg.HotBytes,
		}
		if cfg.CrashAt > 0 {
			// The crash-restart run needs state that outlives a server:
			// a dir-backed registry plus a write-ahead log, rebuilt over
			// the same directories after the kill — exactly what a
			// restarted emap-cloud process sees.
			stateDir, err := os.MkdirTemp("", "emap-fleet-crash-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(stateDir)
			snapDir, walDir := filepath.Join(stateDir, "snap"), filepath.Join(stateDir, "wal")
			durCfg := srvCfg
			durCfg.WALDir, durCfg.WALSync = walDir, wal.SyncAlways
			r.mkSrv = func() (*cloud.Server, error) {
				reg, err := mdb.NewRegistry(snapDir, 0)
				if err != nil {
					return nil, err
				}
				return cloud.NewRegistryServer(reg, durCfg)
			}
		} else {
			r.mkSrv = func() (*cloud.Server, error) { return cloud.NewServer(nil, srvCfg) }
		}
		srv, err := r.mkSrv()
		if err != nil {
			return nil, err
		}
		r.srv = srv
		defer func() {
			if s := r.cloudSrv(); s != nil {
				s.Close()
			}
		}()
		if cfg.SeedRecords > 0 {
			if err := seedStores(srv, cfg); err != nil {
				return nil, err
			}
		}
		r.part = netsim.NewPartition()
		r.dial = func(d *device) (*edge.Client, error) {
			return edge.DialOpts("", edge.ClientOptions{
				Tenant: d.tenant,
				Dialer: func(ctx context.Context) (net.Conn, error) {
					// A split fails dials immediately — the TCP
					// analogue of a connection refused by a dead
					// route — instead of burning a pipe per attempt.
					if r.part.Mode() == netsim.Drop {
						r.part.Drops.Add(1)
						return nil, netsim.ErrPartitioned
					}
					cur := r.cloudSrv()
					if cur == nil {
						return nil, errors.New("fleet: cloud restarting")
					}
					cs, ss := net.Pipe()
					go cur.HandleConn(ss)
					return r.part.Wrap(cs), nil
				},
			})
		}
	case ModeTCP:
		r.dial = func(d *device) (*edge.Client, error) {
			return edge.DialOpts(cfg.Addr, edge.ClientOptions{
				Tenant:      d.tenant,
				DialTimeout: cfg.RequestTimeout,
			})
		}
	}

	// Skewed tenant sizes: tenant k draws weight 1/(k+1), so the
	// first tenant is a hospital and the last a clinic.
	weights := make([]float64, cfg.Tenants)
	var wsum float64
	for k := range weights {
		weights[k] = 1 / float64(k+1)
		wsum += weights[k]
	}
	assign := rand.New(rand.NewSource(cfg.Seed))
	pickTenant := func() string {
		u := assign.Float64() * wsum
		for k, w := range weights {
			if u -= w; u <= 0 {
				return fmt.Sprintf("ward-%d", k)
			}
		}
		return fmt.Sprintf("ward-%d", cfg.Tenants-1)
	}

	r.start = time.Now()
	runCtx, cancel := context.WithDeadline(ctx, r.start.Add(cfg.Duration))
	defer cancel()
	var crash *time.Timer
	restarted := make(chan struct{})
	if cfg.CrashAt > 0 {
		crash = time.AfterFunc(cfg.CrashAt, func() {
			defer close(restarted)
			r.crashRestart(runCtx)
		})
		defer crash.Stop()
		r.logf("fleet: cloud crash-restart scheduled at %v", cfg.CrashAt)
	}
	if cfg.ChaosAt > 0 {
		r.healTime = r.start.Add(cfg.HealAt)
		split := r.part.SplitAfter(cfg.ChaosAt)
		heal := r.part.HealAfter(cfg.HealAt)
		defer split.Stop()
		defer heal.Stop()
		r.logf("fleet: chaos scheduled: split at %v, heal at %v", cfg.ChaosAt, cfg.HealAt)
	}
	r.logf("fleet: %d devices, %d tenants, %v for %v (%s mode)",
		cfg.Devices, cfg.Tenants, cfg.Interval, cfg.Duration, cfg.Mode)

	var wg sync.WaitGroup
	for i := 0; i < cfg.Devices; i++ {
		d := &device{
			id:     i,
			tenant: pickTenant(),
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			base:   make([]float64, 256),
		}
		d.stormRoll = d.rng.Float64()
		freq := 2 + 6*d.rng.Float64()
		phase := 2 * math.Pi * d.rng.Float64()
		for s := range d.base {
			d.base[s] = math.Sin(2*math.Pi*freq*float64(s)/256+phase) + 0.1*d.rng.NormFloat64()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runDevice(runCtx, d)
		}()
	}
	wg.Wait()
	// A restart that fired is waited out: it may have been held to the
	// end of the run, and the survival check needs the rebuilt server.
	if crash != nil && !crash.Stop() {
		<-restarted
	}

	rep := r.report(time.Since(r.start))
	if cfg.CrashAt > 0 {
		rep.Durability = r.checkSurvival()
	}
	return rep, nil
}

// crashRestart is the mid-run kill: tear the serving transport down
// without ever closing the registry (no snapshot persists, no WAL
// checkpoint — the write-ahead log is the only durable copy of
// unevicted ingests), then rebuild the server over the same
// directories the way a restarted process would. The rebuild is held
// until an upload has failed against the dead transport (or the run
// ends), so every crash run observes its own outage however fast the
// server answers.
func (r *runner) crashRestart(ctx context.Context) {
	r.srvMu.Lock()
	old := r.srv
	r.srv = nil
	r.srvMu.Unlock()
	if old != nil {
		old.Close()
	}
	// A token left by a failure from before the kill is not evidence of
	// the outage; one sent after this drain is.
	select {
	case <-r.failed:
	default:
	}
	select {
	case <-r.failed:
	case <-ctx.Done():
	}
	srv, err := r.mkSrv()
	if err != nil {
		r.logf("fleet: cloud restart failed: %v", err)
		return
	}
	r.srvMu.Lock()
	r.srv = srv
	r.srvMu.Unlock()
	r.logf("fleet: cloud crash-restarted; tenants recover from snapshots + WAL replay")
}

// checkSurvival opens every tenant on the recovered server and checks
// each acknowledged ingest is present. Ingests whose acknowledgement
// never reached the device are free to be lost (the device retries
// them in a real deployment); acknowledged ones are not.
func (r *runner) checkSurvival() *DurabilityReport {
	rep := &DurabilityReport{
		CrashAtSeconds: r.cfg.CrashAt.Seconds(),
		IngestAcked:    r.ingestAcked.Load(),
	}
	srv := r.cloudSrv()
	if srv == nil {
		rep.IngestLost = rep.IngestAcked
		return rep
	}
	r.ackMu.Lock()
	defer r.ackMu.Unlock()
	for tenant, ids := range r.acked {
		store, err := srv.Registry().Open(tenant)
		if err != nil {
			rep.IngestLost += int64(len(ids))
			r.logf("fleet: opening tenant %q for the survival check: %v", tenant, err)
			continue
		}
		for _, id := range ids {
			if _, ok := store.Record(id); ok {
				rep.IngestSurvived++
			} else {
				rep.IngestLost++
				r.logf("fleet: acked ingest %s/%s lost across the crash", tenant, id)
			}
		}
	}
	return rep
}

// runDevice is one device's upload loop: staggered start, jittered
// interval shaped by the diurnal curve and the storm, one upload per
// tick.
func (r *runner) runDevice(ctx context.Context, d *device) {
	defer func() {
		// A device still degraded at run end contributes its open
		// span; readoption stays unrecorded (it never recovered).
		if !d.degradedSince.IsZero() {
			r.degradedNanos.Add(int64(time.Since(d.degradedSince)))
		}
		if d.client != nil {
			d.client.Close()
		}
	}()
	if !sleepCtx(ctx, time.Duration(d.rng.Float64()*float64(r.cfg.Interval))) {
		return
	}
	for {
		r.uploadOnce(ctx, d)
		if r.cfg.CrashAt > 0 && d.client != nil && d.rng.Float64() < 0.25 {
			// Crash-restart runs mix ingests into the offered load: the
			// writes whose durability the run is scored on.
			r.ingestOnce(ctx, d)
		}
		if !sleepCtx(ctx, r.interval(d)) {
			return
		}
	}
}

// ingestOnce pushes one deterministic recording and, when the cloud
// acknowledges it, records the ID for the post-recovery survival
// check. Errors are fine — an unacknowledged ingest carries no
// durability promise.
func (r *runner) ingestOnce(ctx context.Context, d *device) {
	d.ingestSeq++
	id := fmt.Sprintf("dev-%04d-rec-%d", d.id, d.ingestSeq)
	samples := make([]float64, 2048)
	for i := range samples {
		samples[i] = d.base[i%len(d.base)] * (1 + 0.001*float64(d.ingestSeq))
	}
	counts, scale := proto.Quantize(samples)
	reqCtx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	_, err := d.client.Ingest(reqCtx, &proto.Ingest{
		Seq: uint32(d.ingestSeq), RecordID: id, Onset: -1, Scale: scale, Samples: counts})
	cancel()
	if err != nil {
		return
	}
	r.ingestAcked.Add(1)
	r.ackMu.Lock()
	if r.acked == nil {
		r.acked = make(map[string][]string)
	}
	r.acked[d.tenant] = append(r.acked[d.tenant], id)
	r.ackMu.Unlock()
}

// interval is the device's next sleep: the mean interval, over the
// diurnal load factor, halved during its storm, jittered ±25%.
func (r *runner) interval(d *device) time.Duration {
	iv := float64(r.cfg.Interval)
	if r.cfg.Diurnal {
		t := time.Since(r.start)
		// Load factor 0.7±0.3: trough at the start and end of the
		// run, peak in the middle — one compressed day.
		f := 0.7 - 0.3*math.Cos(2*math.Pi*float64(t)/float64(r.cfg.Duration))
		iv /= f
	}
	if r.stormy(d) {
		iv /= 2
	}
	iv *= 0.75 + 0.5*d.rng.Float64()
	return time.Duration(iv)
}

// stormy reports whether d is currently anomalous: inside the storm
// window and among the StormFraction of the fleet the storm selects.
func (r *runner) stormy(d *device) bool {
	if r.cfg.StormAt <= 0 || d.stormRoll >= r.cfg.StormFraction {
		return false
	}
	t := time.Since(r.start)
	return t >= r.cfg.StormAt && t < r.cfg.StormAt+r.cfg.StormDuration
}

// window is the device's next upload: usually its base window again
// (the tracking-loop steady state the cloud cache serves), sometimes
// a noisy variant that forces a real search.
func (d *device) window() []float64 {
	if d.rng.Float64() < 0.5 {
		return d.base
	}
	w := make([]float64, len(d.base))
	for i := range d.base {
		w[i] = d.base[i] + 0.05*d.rng.NormFloat64()
	}
	return w
}

func (r *runner) uploadOnce(ctx context.Context, d *device) {
	if d.client == nil {
		cl, err := r.dial(d)
		if err != nil {
			r.uploads.Add(1)
			r.uploadFailed(d)
			return
		}
		d.client = cl
		r.clients.Lock()
		r.clients.all = append(r.clients.all, cl)
		r.clients.Unlock()
	}
	pri := proto.PriRoutine
	if r.stormy(d) {
		pri = proto.PriAnomaly
	}
	reqCtx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	begin := time.Now()
	_, err := d.client.SearchPri(reqCtx, d.window(), pri)
	lat := time.Since(begin)
	cancel()

	r.uploads.Add(1)
	switch {
	case err == nil:
		r.latAll.observe(lat)
		if pri == proto.PriAnomaly {
			r.latAnomaly.observe(lat)
		}
		r.successes.Add(1)
		r.markSuccess(d)
	case edge.IsCloudCode(err, cloud.CodeShed):
		// An admission refusal is the server protecting itself, not
		// the device losing service: it does not open a degraded span.
		r.shed.Add(1)
	case edge.IsCloudCode(err, cloud.CodeRateLimited):
		r.rateLimited.Add(1)
	default:
		if ctx.Err() != nil {
			// The run deadline tripped mid-exchange; not a service
			// failure.
			r.uploads.Add(-1)
			return
		}
		r.uploadFailed(d)
	}
}

// uploadFailed counts one failed upload, opens the device's degraded
// span and leaves the token a pending crashRestart waits for.
func (r *runner) uploadFailed(d *device) {
	r.errCount.Add(1)
	d.markFailure()
	select {
	case r.failed <- struct{}{}:
	default:
	}
}

// markFailure opens the device's degraded span (first failure only).
func (d *device) markFailure() {
	if d.degradedSince.IsZero() {
		d.degradedSince = time.Now()
	}
}

// markSuccess closes an open degraded span and, when the span rode
// across the heal, records the heal-to-readoption time.
func (r *runner) markSuccess(d *device) {
	if d.degradedSince.IsZero() {
		return
	}
	now := time.Now()
	r.degradedNanos.Add(int64(now.Sub(d.degradedSince)))
	if !r.healTime.IsZero() && d.degradedSince.Before(r.healTime) && now.After(r.healTime) {
		r.mu.Lock()
		r.readoptions = append(r.readoptions, now.Sub(r.healTime))
		r.mu.Unlock()
	}
	d.degradedSince = time.Time{}
}

func summarize(h *histogram) LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  h.count.Load(),
		MeanMs: ms(h.mean()),
		P50Ms:  ms(h.quantile(0.50)),
		P99Ms:  ms(h.quantile(0.99)),
		P999Ms: ms(h.quantile(0.999)),
		MaxMs:  ms(time.Duration(h.max.Load())),
	}
}

func (r *runner) report(ran time.Duration) *Report {
	rep := &Report{
		Mode:            r.cfg.Mode,
		Devices:         r.cfg.Devices,
		Tenants:         r.cfg.Tenants,
		DurationSeconds: ran.Seconds(),
		Uploads:         r.uploads.Load(),
		Successes:       r.successes.Load(),
		Shed:            r.shed.Load(),
		RateLimited:     r.rateLimited.Load(),
		Errors:          r.errCount.Load(),
		Latency:         summarize(&r.latAll),
		AnomalyLatency:  summarize(&r.latAnomaly),
	}
	if total := float64(r.cfg.Devices) * float64(ran); total > 0 {
		rep.DegradedFraction = float64(r.degradedNanos.Load()) / total
	}
	r.clients.Lock()
	for _, cl := range r.clients.all {
		s := cl.Metrics.Snapshot()
		rep.Client.Dials += s.Dials
		rep.Client.DialFailures += s.DialFailures
		rep.Client.Reconnects += s.Reconnects
		rep.Client.ConnLost += s.ConnLost
		rep.Client.Redirects += s.Redirects
	}
	r.clients.Unlock()
	if r.cfg.ChaosAt > 0 {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		ch := &ChaosReport{
			SplitAtSeconds: r.cfg.ChaosAt.Seconds(),
			HealAtSeconds:  r.cfg.HealAt.Seconds(),
			Drops:          r.part.Drops.Load(),
			Severed:        r.part.Severed.Load(),
		}
		r.mu.Lock()
		ro := append([]time.Duration(nil), r.readoptions...)
		r.mu.Unlock()
		if len(ro) > 0 {
			sort.Slice(ro, func(i, j int) bool { return ro[i] < ro[j] })
			ch.ReadoptedDevices = len(ro)
			ch.ReadoptionP50Ms = ms(ro[len(ro)/2])
			ch.ReadoptionMaxMs = ms(ro[len(ro)-1])
		}
		rep.Chaos = ch
	}
	if srv := r.cloudSrv(); srv != nil {
		snap := srv.Metrics.Snapshot()
		rep.Cloud = &snap
	}
	return rep
}

// seedStores gives every tenant a populated mega-database before the
// load starts, through the same ingest path a live deployment fills
// stores with — so uploads pay a realistic scan, not an empty-store
// no-op.
func seedStores(srv *cloud.Server, cfg Config) error {
	g := synth.NewGenerator(synth.Config{Seed: uint64(cfg.Seed), ArchetypesPerClass: 2})
	bc := mdb.DefaultBuildConfig()
	for k := 0; k < cfg.Tenants; k++ {
		tenantID := fmt.Sprintf("ward-%d", k)
		for i := 0; i < cfg.SeedRecords; i++ {
			class, opts := synth.Normal, synth.InstanceOpts{OffsetSamples: i * 2000, DurSeconds: 60}
			if i%2 == 1 {
				class = synth.Seizure
				opts.OffsetSamples = synth.PreictalAt*256 + i*2000
				opts.DurSeconds = 90
			}
			rec, err := mdb.Preprocess(g.Instance(class, i%2, opts), bc, nil)
			if err != nil {
				return fmt.Errorf("fleet: seeding %s: %w", tenantID, err)
			}
			counts, scale := proto.Quantize(rec.Samples)
			if _, err := srv.Ingest(tenantID, &proto.Ingest{
				RecordID:  fmt.Sprintf("%s-seed-%d", tenantID, i),
				Class:     uint8(rec.Class),
				Archetype: uint16(rec.Archetype),
				Onset:     int32(rec.Onset),
				Scale:     scale,
				Samples:   counts,
			}); err != nil {
				return fmt.Errorf("fleet: seeding %s: %w", tenantID, err)
			}
		}
	}
	return nil
}

// sleepCtx sleeps d or until ctx is done; false means the run is over.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
