// Command emap-cloud runs the cloud tier: it hosts a registry of
// tenant mega-databases and answers edge uploads with signal
// correlation sets over TCP. Edges name a tenant per request and may
// push recordings into their tenant's store (TypeIngest) while it is
// being searched; requests that name none land on the default tenant.
// Uploads from pipelined edges are served by a bounded worker pool;
// uploads that queue behind busy workers are coalesced into batched
// searches per tenant (one shard pass serves the whole batch), and
// repeated near-identical windows are answered from each tenant's
// bounded correlation-set cache without scanning at all.
// SIGINT/SIGTERM drain in-flight searches, then persist every open
// tenant store when -store-dir is set.
//
// Usage:
//
//	emap-cloud [-addr :7300] [-mdb mdb.snap] [-per 8] [-seed 2020]
//	           [-workers N] [-drain 10s] [-max-batch 32]
//	           [-batch-window 0s] [-cache 256]
//	           [-store-dir DIR] [-max-tenants N] [-tenant default]
//	           [-empty]
//	           [-hot-bytes N] [-store-format gob|columnar]
//	           [-rate N] [-burst N] [-shed-queue N]
//	           [-wal-dir DIR] [-wal-sync always|interval|never]
//	           [-wal-interval 50ms] [-idle-timeout 0s]
//	           [-http :9300]
//	           [-node ID] [-advertise HOST:PORT]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -node ID the process serves as one member of an emap-router
// cluster: it owns only its consistent-hash share of tenants, answers
// MOVED for the rest, migrates tenants when the router pushes a new
// ring, and ships each owned tenant's snapshot to its ring replica
// after every ingest. -advertise sets the address peers and the router
// dial (defaults to the listen address, which only works when everyone
// shares a network namespace).
//
// -http starts the observability endpoint: /metrics serves the
// Prometheus text exposition (registry-wide and per-tenant counters
// plus Go runtime health), /healthz answers ok. -rate/-burst bound
// each tenant's request rate (token bucket) and -shed-queue enables
// load shedding of routine-priority uploads under saturation; both
// admission refusals are visible on /metrics.
//
// -wal-dir enables crash-safe ingest durability: every acknowledged
// ingest is journaled to a per-tenant write-ahead log before it is
// acknowledged, and a restarted process replays each tenant's journal
// over its last snapshot — a kill between snapshots loses nothing.
// -wal-sync picks the fsync policy (always: ack after fsync, the
// durability guarantee; interval: group fsyncs, bounded loss window;
// never: the filesystem decides) and -wal-interval the group-fsync
// period. -idle-timeout reaps connections that deliver no frame for
// that long (slow-loris guard; 0 keeps them forever).
//
// -store-format columnar persists tenant snapshots in the columnar v2
// layout, which loads memory-mapped: records are scanned in place, out
// of the page cache. Every store keeps its records as int16 counts
// whatever the format. -hot-bytes caps the one thing a tenant can still
// spend bytes promoting — heap copies of memory-mapped counts, made as
// scans touch them while the budget has headroom and dropped, least
// recently scanned first, when it shrinks; 0 makes no copies. Tier
// residency appears on /metrics as emap_tenant_store_bytes.
//
// The default tenant's store comes from, in order of precedence: an
// explicit -mdb snapshot; a persisted DIR/default.snap in -store-dir
// (restarts must never clobber previously ingested data with a fresh
// synthetic store); -empty (start with nothing, fill via ingest); or
// a synthetic store built at startup. -store-dir enables lazy
// per-tenant snapshot loading and persistence (tenant T lives in
// DIR/T.snap).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"emap"
	"emap/internal/cloud"
	"emap/internal/cluster"
	"emap/internal/mdb"
	"emap/internal/obs"
	"emap/internal/wal"
)

// options is the parsed flag set — separated from main so the
// flag-to-config path is testable without spawning the process.
type options struct {
	addr        string
	snapshot    string
	per         int
	seed        uint64
	horizon     float64
	workers     int
	drain       time.Duration
	maxBatch    int
	batchWindow time.Duration
	cacheSize   int
	tenantRate  float64
	tenantBurst int
	shedQueue   int
	storeDir    string
	maxTenants  int
	defTenant   string
	nodeID      string
	advertise   string
	empty       bool
	hotBytes    int64
	storeFormat string
	walDir      string
	walSync     string
	walInterval time.Duration
	idleTimeout time.Duration
	httpAddr    string
	cpuprofile  string
	memprofile  string
}

// parseFlags parses an emap-cloud argument list.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("emap-cloud", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":7300", "listen address")
	fs.StringVar(&o.snapshot, "mdb", "", "default tenant snapshot path (empty: build synthetic)")
	fs.IntVar(&o.per, "per", 8, "recordings per corpus when building synthetically")
	fs.Uint64Var(&o.seed, "seed", 2020, "generator seed when building synthetically")
	fs.Float64Var(&o.horizon, "horizon", 8, "continuation horizon per match [s]")
	fs.IntVar(&o.workers, "workers", 0, "concurrent search workers (0: GOMAXPROCS)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown drain budget")
	fs.IntVar(&o.maxBatch, "max-batch", 0, "max uploads coalesced per batched search (0: default 32, 1: disable)")
	fs.DurationVar(&o.batchWindow, "batch-window", 0, "extra wait for uploads to join a batch (0: none)")
	fs.IntVar(&o.cacheSize, "cache", 0, "per-tenant correlation-set cache entries (0: default 256, negative: disable)")
	fs.Float64Var(&o.tenantRate, "rate", 0, "per-tenant admission rate [req/s] (0: unlimited)")
	fs.IntVar(&o.tenantBurst, "burst", 0, "per-tenant admission burst when -rate is set (0: max(8, rate))")
	fs.IntVar(&o.shedQueue, "shed-queue", 0, "search backlog beyond which routine uploads are shed (0: never)")
	fs.StringVar(&o.storeDir, "store-dir", "", "tenant snapshot directory (empty: in-memory registry)")
	fs.IntVar(&o.maxTenants, "max-tenants", 0, "max open tenant stores, LRU-evicted beyond (0: unbounded)")
	fs.StringVar(&o.defTenant, "tenant", cloud.DefaultTenant, "default tenant ID (tenant-less requests land here)")
	fs.StringVar(&o.nodeID, "node", "", "cluster node ID: serve as a member of an emap-router cluster instead of a standalone cloud")
	fs.StringVar(&o.advertise, "advertise", "", "address peers and the router dial to reach this node (default: the listen address)")
	fs.BoolVar(&o.empty, "empty", false, "build no synthetic default store; the default tenant lazy-loads its -store-dir snapshot if one exists, else starts empty")
	fs.Int64Var(&o.hotBytes, "hot-bytes", 0, "per-tenant budget, in bytes, for heap copies of memory-mapped records (0: none are made)")
	fs.StringVar(&o.storeFormat, "store-format", "", "tenant snapshot format: gob|columnar (empty: keep each store's format)")
	fs.StringVar(&o.walDir, "wal-dir", "", "per-tenant write-ahead log directory; ingests are journaled before acknowledgement (empty: no journal)")
	fs.StringVar(&o.walSync, "wal-sync", "always", "WAL fsync policy: always|interval|never")
	fs.DurationVar(&o.walInterval, "wal-interval", 0, "group-fsync period under -wal-sync interval (0: 50ms)")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 0, "reap connections idle this long (0: never)")
	fs.StringVar(&o.httpAddr, "http", "", "observability endpoint address serving /metrics and /healthz (empty: disabled)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (stopped at shutdown)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at shutdown")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// validate rejects flag combinations no server should start with.
func (o *options) validate() error {
	if o.storeFormat != "" {
		if _, err := mdb.ParseFormat(o.storeFormat); err != nil {
			return err
		}
	}
	if o.hotBytes < 0 {
		return fmt.Errorf("-hot-bytes %d invalid (want ≥ 0)", o.hotBytes)
	}
	if o.snapshot != "" && o.empty {
		return errors.New("-mdb and -empty conflict; pass one")
	}
	if _, err := wal.ParsePolicy(o.walSync); err != nil {
		return err
	}
	if o.walInterval < 0 {
		return fmt.Errorf("-wal-interval %v invalid (want ≥ 0)", o.walInterval)
	}
	if o.idleTimeout < 0 {
		return fmt.Errorf("-idle-timeout %v invalid (want ≥ 0)", o.idleTimeout)
	}
	return nil
}

// cloudConfig maps the flags onto the service configuration.
func (o *options) cloudConfig(logger *log.Logger) cloud.Config {
	var format mdb.Format
	if o.storeFormat != "" {
		format, _ = mdb.ParseFormat(o.storeFormat)
	}
	syncPolicy, _ := wal.ParsePolicy(o.walSync) // validated by validate
	return cloud.Config{
		HotBytes:        o.hotBytes,
		StoreFormat:     format,
		HorizonSeconds:  o.horizon,
		Workers:         o.workers,
		MaxBatch:        o.maxBatch,
		BatchWindow:     o.batchWindow,
		CacheSize:       o.cacheSize,
		TenantRate:      o.tenantRate,
		TenantBurst:     o.tenantBurst,
		ShedQueue:       o.shedQueue,
		DefaultTenant:   o.defTenant,
		WALDir:          o.walDir,
		WALSync:         syncPolicy,
		WALSyncInterval: o.walInterval,
		IdleTimeout:     o.idleTimeout,
		Logger:          logger,
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // the flag package already printed the problem
	}
	logger := log.New(os.Stderr, "emap-cloud: ", log.LstdFlags)
	if err := o.validate(); err != nil {
		logger.Fatal(err)
	}

	// Every fatal exit below routes through stopProfiles first:
	// logger.Fatal skips deferred functions (os.Exit), which would
	// otherwise leave a truncated CPU profile and no heap profile at
	// all — the capture an operator asked for would be lost exactly
	// when the process dies.
	stopProfiles := func() {}
	fatal := func(v ...any) { stopProfiles(); logger.Fatal(v...) }
	fatalf := func(format string, v ...any) { stopProfiles(); logger.Fatalf(format, v...) }
	var cpuFile *os.File
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			logger.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Fatalf("-cpuprofile: %v", err)
		}
		cpuFile = f
	}
	if cpuFile != nil || o.memprofile != "" {
		var once sync.Once
		stopProfiles = func() {
			once.Do(func() {
				if cpuFile != nil {
					pprof.StopCPUProfile()
					cpuFile.Close()
					logger.Printf("CPU profile written to %s", o.cpuprofile)
				}
				if o.memprofile == "" {
					return
				}
				f, err := os.Create(o.memprofile)
				if err != nil {
					logger.Printf("-memprofile: %v", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					logger.Printf("-memprofile: %v", err)
					return
				}
				logger.Printf("heap profile written to %s", o.memprofile)
			})
		}
		defer stopProfiles()
	}

	reg, err := mdb.NewRegistry(o.storeDir, o.maxTenants)
	if err != nil {
		fatal(err)
	}
	// A default-tenant snapshot in the registry directory outranks
	// building a synthetic store: adopting a fresh store over it
	// would overwrite previously ingested data at the next shutdown.
	// An explicit -mdb still wins (the operator asked for it).
	persisted := false
	for _, id := range reg.ListStored() {
		if id == o.defTenant {
			persisted = true
		}
	}
	switch {
	case persisted && o.snapshot == "":
		logger.Printf("default tenant %q will lazy-load from %s", o.defTenant, o.storeDir)
	case o.empty:
		logger.Printf("default tenant %q starts empty; awaiting ingest", o.defTenant)
	default:
		var store *emap.Store
		if o.snapshot != "" {
			store, err = mdb.LoadFile(o.snapshot)
			if err != nil {
				fatalf("loading %s: %v", o.snapshot, err)
			}
			logger.Printf("loaded %s", o.snapshot)
		} else {
			logger.Printf("building synthetic mega-database (seed %d, %d per corpus)…", o.seed, o.per)
			store, err = emap.BuildMDBFromCorpora(emap.NewGenerator(o.seed), o.per)
			if err != nil {
				fatalf("building store: %v", err)
			}
		}
		normal, anomalous := store.LabelCounts()
		logger.Printf("default tenant %q: %d signal-sets (%d normal / %d anomalous)",
			o.defTenant, store.NumSets(), normal, anomalous)
		if err := reg.Adopt(o.defTenant, store); err != nil {
			fatal(err)
		}
	}
	if stored := reg.ListStored(); len(stored) > 0 {
		logger.Printf("%d tenant snapshots available in %s", len(stored), o.storeDir)
	}
	if o.walDir != "" {
		logger.Printf("ingest journal in %s (fsync %s)", o.walDir, o.walSync)
	}

	cfg := o.cloudConfig(logger)
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal(err)
	}

	// Standalone cloud or cluster member: both expose the same serve /
	// drain surface over the same engine.
	type service interface {
		Serve(net.Listener) error
		Shutdown(context.Context) error
	}
	var svc service
	var eng *cloud.Engine
	if o.nodeID != "" {
		peerAddr := o.advertise
		if peerAddr == "" {
			peerAddr = l.Addr().String()
		}
		node, err := cluster.NewNode(reg, cluster.NodeConfig{
			ID:     o.nodeID,
			Addr:   peerAddr,
			Cloud:  cfg,
			Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		svc, eng = node, node.Engine()
		fmt.Printf("emap-cloud node %q listening on %s (peers dial %s)\n", o.nodeID, l.Addr(), peerAddr)
	} else {
		srv, err := cloud.NewRegistryServer(reg, cfg)
		if err != nil {
			fatal(err)
		}
		svc, eng = srv, srv.Engine
		fmt.Printf("emap-cloud listening on %s\n", l.Addr())
	}

	if o.httpAddr != "" {
		obsReg := obs.NewRegistry()
		obsReg.Register(obs.CloudCollector(eng))
		obsReg.Register(obs.RuntimeCollector())
		metricsSrv, err := obs.Serve(o.httpAddr, obsReg)
		if err != nil {
			fatalf("-http: %v", err)
		}
		defer metricsSrv.Close()
		logger.Printf("metrics on http://%s/metrics", metricsSrv.Addr())
	}

	// persistTenants flushes every open store to -store-dir;
	// finalMetrics emits the end-of-life serving summary. Both run on
	// every exit path — the clean drain AND a listener that dies under
	// the process — so a fatal Accept error neither discards what
	// edges already pushed nor swallows the run's metrics.
	persistTenants := func() {
		if o.storeDir == "" {
			return
		}
		if err := reg.Close(); err != nil {
			logger.Printf("persisting tenants: %v", err)
		} else {
			logger.Printf("tenant stores persisted to %s", o.storeDir)
		}
	}
	finalMetrics := func() {
		tenants := eng.Tenants()
		sort.Strings(tenants)
		for _, id := range tenants {
			if m := eng.MetricsFor(id); m != nil {
				s := m.Snapshot()
				logger.Printf("tenant %q: %d requests, %d ingests (+%d sets), cache %d/%d, %d batches (mean %.2f)",
					id, s.Requests, s.Ingests, s.IngestedSets,
					s.CacheHits, s.CacheHits+s.CacheMisses,
					s.Batches, s.BatchSizeMean)
			}
		}
		s := eng.Metrics.Snapshot()
		logger.Printf("served %d requests (%d errors, mean latency %v, peak in-flight %d)",
			s.Requests, s.Errors, s.MeanLatency, s.PeakInFlight)
		logger.Printf("admission: %d rate-limited, %d shed (backlog now %d)",
			s.RateLimited, s.Shed, s.SearchBacklog)
		logger.Printf("scan amortization: %d batches (mean size %.2f), cache %d hits / %d misses",
			s.Batches, s.BatchSizeMean, s.CacheHits, s.CacheMisses)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.Serve(l) }()
	select {
	case err := <-serveDone:
		if err != nil {
			finalMetrics()
			persistTenants()
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		logger.Printf("signal received; draining (≤%v)…", o.drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := svc.Shutdown(drainCtx); err != nil {
			logger.Printf("forced shutdown: %v", err)
		}
		<-serveDone
	}
	finalMetrics()
	persistTenants()
}
