package main

import (
	"context"
	"testing"
	"time"

	"emap/internal/fleet"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.fleetConfig(nil)
	if cfg.Mode != fleet.ModeNetsim || cfg.Devices != 100 || cfg.Tenants != 4 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Interval != time.Second || cfg.RequestTimeout != 5*time.Second {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestParseFlagsChaosScenario(t *testing.T) {
	o, err := parseFlags([]string{
		"-devices", "1000", "-mode", "netsim", "-duration", "30s",
		"-chaos-at", "10s", "-heal-at", "15s",
		"-storm-at", "5s", "-storm-duration", "10s", "-storm-fraction", "0.2",
		"-workers", "2", "-shed-queue", "32", "-rate", "40", "-diurnal",
		"-out", "BENCH_fleet.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.fleetConfig(nil)
	if cfg.Devices != 1000 || cfg.ChaosAt != 10*time.Second || cfg.HealAt != 15*time.Second {
		t.Fatalf("chaos flags not mapped: %+v", cfg)
	}
	if cfg.StormAt != 5*time.Second || cfg.StormFraction != 0.2 || !cfg.Diurnal {
		t.Fatalf("storm flags not mapped: %+v", cfg)
	}
	if cfg.ShedQueue != 32 || cfg.TenantRate != 40 || cfg.Workers != 2 {
		t.Fatalf("server flags not mapped: %+v", cfg)
	}
	if o.out != "BENCH_fleet.json" {
		t.Fatalf("-out not parsed: %+v", o)
	}
}

func TestParseFlagsBadFlag(t *testing.T) {
	if _, err := parseFlags([]string{"-devices", "lots"}); err == nil {
		t.Fatal("non-numeric -devices accepted")
	}
	if _, err := parseFlags([]string{"-warp-speed"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestBadModeSurfacesFromRun: an invalid -mode reaches the harness
// and fails fast, before any device spins up.
func TestBadModeSurfacesFromRun(t *testing.T) {
	o, err := parseFlags([]string{"-mode", "smoke-signals"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := fleet.Run(context.Background(), o.fleetConfig(nil)); err == nil {
		t.Fatal("bad mode accepted by the harness")
	}
	if time.Since(start) > time.Second {
		t.Fatal("bad mode was not rejected fast")
	}
}

func TestParseFlagsStoreTier(t *testing.T) {
	o, err := parseFlags([]string{"-hot-bytes", "262144"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := o.fleetConfig(nil); cfg.HotBytes != 262144 {
		t.Fatalf("-hot-bytes not mapped: %+v", cfg)
	}
	if _, err := parseFlags([]string{"-hot-bytes", "-1"}); err == nil {
		t.Fatal("negative -hot-bytes accepted")
	}
}

func TestParseFlagsCrashRestart(t *testing.T) {
	o, err := parseFlags([]string{"-crash-at", "12s", "-duration", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := o.fleetConfig(nil); cfg.CrashAt != 12*time.Second {
		t.Fatalf("-crash-at not mapped: %+v", cfg)
	}
}
