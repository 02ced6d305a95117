// Command emap-fleet is the load harness: it drives a fleet of
// simulated edge devices against the cloud tier and writes a
// machine-readable SLO report (latency quantiles, degraded-time
// fraction, heal-to-readoption time, shed/error counts).
//
// Usage:
//
//	emap-fleet [-devices 100] [-duration 10s] [-mode netsim|tcp]
//	           [-addr HOST:PORT] [-tenants 4] [-interval 1s]
//	           [-timeout 5s] [-diurnal] [-seed 1] [-seed-records 2]
//	           [-storm-at 0s] [-storm-duration 0s] [-storm-fraction 0.1]
//	           [-chaos-at 0s] [-heal-at 0s] [-crash-at 0s]
//	           [-workers N] [-shed-queue N] [-rate N] [-burst N]
//	           [-out BENCH_fleet.json] [-v]
//
// The default netsim mode hosts the cloud server in-process and pipes
// devices into it — thousands of devices with no sockets — with chaos
// (-chaos-at/-heal-at) injected through the netsim fault injector.
// -crash-at hard-restarts the in-process cloud mid-run over the same
// snapshot and WAL directories; devices then ingest alongside their
// uploads and the run exits non-zero if any acknowledged ingest is
// lost across the restart (the durability acceptance gate).
// tcp mode points the same fleet at a running emap-cloud or
// emap-router at -addr; the chaos flags are refused there. The report
// goes to -out as JSON (stdout when empty); CI's smoke run publishes
// it as BENCH_fleet.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emap/internal/fleet"
)

// options is the parsed flag set — separated from main so the
// flag-to-config path is testable without spawning the process.
type options struct {
	devices       int
	duration      time.Duration
	mode          string
	addr          string
	tenants       int
	interval      time.Duration
	timeout       time.Duration
	diurnal       bool
	stormAt       time.Duration
	stormDuration time.Duration
	stormFraction float64
	chaosAt       time.Duration
	healAt        time.Duration
	crashAt       time.Duration
	seed          int64
	seedRecords   int
	workers       int
	shedQueue     int
	hotBytes      int64
	tenantRate    float64
	tenantBurst   int
	out           string
	verbose       bool
}

// parseFlags parses an emap-fleet argument list.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("emap-fleet", flag.ContinueOnError)
	fs.IntVar(&o.devices, "devices", 100, "fleet size")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "how long devices keep uploading")
	fs.StringVar(&o.mode, "mode", "netsim", "netsim (in-process server) or tcp (dial -addr)")
	fs.StringVar(&o.addr, "addr", "", "service address (tcp mode)")
	fs.IntVar(&o.tenants, "tenants", 4, "tenants the fleet spreads over (skewed sizes)")
	fs.DurationVar(&o.interval, "interval", time.Second, "mean per-device upload interval")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-upload exchange timeout")
	fs.BoolVar(&o.diurnal, "diurnal", false, "modulate offered load over the run (compressed day)")
	fs.DurationVar(&o.stormAt, "storm-at", 0, "anomaly storm start offset (0: no storm)")
	fs.DurationVar(&o.stormDuration, "storm-duration", 0, "anomaly storm length")
	fs.Float64Var(&o.stormFraction, "storm-fraction", 0.1, "fraction of the fleet the storm turns anomalous")
	fs.DurationVar(&o.chaosAt, "chaos-at", 0, "network split offset, netsim mode (0: no chaos)")
	fs.DurationVar(&o.healAt, "heal-at", 0, "network heal offset (must follow -chaos-at)")
	fs.DurationVar(&o.crashAt, "crash-at", 0, "hard-restart the in-process cloud at this offset, netsim mode (0: no crash); exits non-zero if an acked ingest is lost")
	fs.Int64Var(&o.seed, "seed", 1, "run seed (reproducible fleets)")
	fs.IntVar(&o.seedRecords, "seed-records", 2, "recordings ingested per tenant store before the run (negative: none)")
	fs.IntVar(&o.workers, "workers", 0, "in-process server search workers (netsim mode; 0: GOMAXPROCS)")
	fs.IntVar(&o.shedQueue, "shed-queue", 0, "in-process server shed threshold (netsim mode; 0: never shed)")
	fs.Int64Var(&o.hotBytes, "hot-bytes", 0, "in-process server per-store budget for heap copies of memory-mapped records (netsim mode; 0: none are made)")
	fs.Float64Var(&o.tenantRate, "rate", 0, "in-process server per-tenant admission rate [req/s] (0: unlimited)")
	fs.IntVar(&o.tenantBurst, "burst", 0, "in-process server per-tenant admission burst (0: max(8, rate))")
	fs.StringVar(&o.out, "out", "", "write the JSON report to this file (empty: stdout)")
	fs.BoolVar(&o.verbose, "v", false, "narrate the run to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.hotBytes < 0 {
		return nil, fmt.Errorf("-hot-bytes must be >= 0, got %d", o.hotBytes)
	}
	return o, nil
}

// fleetConfig maps the flags onto the harness configuration; fleet
// validation (mode/addr/chaos consistency) happens inside Run.
func (o *options) fleetConfig(logger *log.Logger) fleet.Config {
	return fleet.Config{
		Devices:        o.devices,
		Duration:       o.duration,
		Mode:           fleet.Mode(o.mode),
		Addr:           o.addr,
		Tenants:        o.tenants,
		Interval:       o.interval,
		RequestTimeout: o.timeout,
		Diurnal:        o.diurnal,
		StormAt:        o.stormAt,
		StormDuration:  o.stormDuration,
		StormFraction:  o.stormFraction,
		ChaosAt:        o.chaosAt,
		HealAt:         o.healAt,
		CrashAt:        o.crashAt,
		Seed:           o.seed,
		SeedRecords:    o.seedRecords,
		Workers:        o.workers,
		ShedQueue:      o.shedQueue,
		TenantRate:     o.tenantRate,
		TenantBurst:    o.tenantBurst,
		HotBytes:       o.hotBytes,
		Logger:         logger,
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // the flag package already printed the problem
	}
	logger := log.New(os.Stderr, "emap-fleet: ", log.LstdFlags)
	var runLogger *log.Logger
	if o.verbose {
		runLogger = logger
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := fleet.Run(ctx, o.fleetConfig(runLogger))
	if err != nil {
		logger.Fatal(err)
	}

	logger.Printf("%d uploads: %d ok, %d shed, %d rate-limited, %d errors",
		rep.Uploads, rep.Successes, rep.Shed, rep.RateLimited, rep.Errors)
	logger.Printf("latency p50 %.2fms p99 %.2fms p999 %.2fms; degraded %.2f%% of device-time",
		rep.Latency.P50Ms, rep.Latency.P99Ms, rep.Latency.P999Ms, 100*rep.DegradedFraction)
	if rep.Chaos != nil {
		logger.Printf("chaos: %d drops, %d severed; %d devices readopted (p50 %.0fms, max %.0fms)",
			rep.Chaos.Drops, rep.Chaos.Severed, rep.Chaos.ReadoptedDevices,
			rep.Chaos.ReadoptionP50Ms, rep.Chaos.ReadoptionMaxMs)
	}
	if rep.Durability != nil {
		logger.Printf("durability: %d ingests acked, %d survived the crash-restart, %d lost",
			rep.Durability.IngestAcked, rep.Durability.IngestSurvived, rep.Durability.IngestLost)
	}

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		logger.Fatal(err)
	}
	body = append(body, '\n')
	if o.out == "" {
		os.Stdout.Write(body)
	} else {
		if err := os.WriteFile(o.out, body, 0o644); err != nil {
			logger.Fatal(err)
		}
		fmt.Printf("report written to %s\n", o.out)
	}
	// The durability gate comes after the report is written, so a
	// failing run still leaves its evidence behind.
	if rep.Durability != nil && rep.Durability.IngestLost > 0 {
		logger.Fatalf("%d acknowledged ingests lost across the crash-restart", rep.Durability.IngestLost)
	}
}
