package main

import (
	"strings"
	"testing"
	"time"

	"emap/internal/mdb"
	"emap/internal/wal"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":7300" || o.defTenant != "default" {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.drain != 10*time.Second || o.httpAddr != "" {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if err := o.validate(); err != nil {
		t.Fatalf("default flags invalid: %v", err)
	}
}

func TestParseFlagsFull(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", ":1234", "-workers", "3",
		"-rate", "12.5", "-burst", "20", "-shed-queue", "64",
		"-http", ":9300", "-tenant", "icu", "-cache", "-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	cfg := o.cloudConfig(nil)
	if cfg.Workers != 3 || cfg.TenantRate != 12.5 || cfg.TenantBurst != 20 ||
		cfg.ShedQueue != 64 || cfg.DefaultTenant != "icu" || cfg.CacheSize != -1 {
		t.Fatalf("flags not mapped onto config: %+v", cfg)
	}
	if o.httpAddr != ":9300" {
		t.Fatalf("-http not parsed: %+v", o)
	}
}

func TestParseFlagsBadFlag(t *testing.T) {
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"-workers", "many"}); err == nil {
		t.Fatal("non-numeric -workers accepted")
	}
	// Each scan has one kernel route; the flag that chose between
	// several is gone, not ignored.
	if _, err := parseFlags([]string{"-kernel", "fft"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-kernel not rejected as an unknown flag: %v", err)
	}
}

func TestParseFlagsStoreTier(t *testing.T) {
	o, err := parseFlags([]string{
		"-hot-bytes", "65536", "-store-format", "columnar",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	cfg := o.cloudConfig(nil)
	if cfg.HotBytes != 65536 {
		t.Fatalf("HotBytes = %d, want 65536", cfg.HotBytes)
	}
	if cfg.StoreFormat != mdb.FormatColumnar {
		t.Fatalf("StoreFormat = %v, want columnar", cfg.StoreFormat)
	}
}

func TestStoreFormatDefaultUnset(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := o.cloudConfig(nil); cfg.StoreFormat != 0 || cfg.HotBytes != 0 {
		t.Fatalf("unset tier flags must map to zero values: %+v", cfg)
	}
}

func TestValidateRejectsBadStoreFormat(t *testing.T) {
	o, err := parseFlags([]string{"-store-format", "parquet"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("bad store format not rejected: %v", err)
	}
}

func TestValidateRejectsNegativeHotBytes(t *testing.T) {
	o, err := parseFlags([]string{"-hot-bytes", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err == nil || !strings.Contains(err.Error(), "-hot-bytes") {
		t.Fatalf("negative -hot-bytes not rejected: %v", err)
	}
}

func TestValidateRejectsMDBEmptyConflict(t *testing.T) {
	o, err := parseFlags([]string{"-mdb", "x.snap", "-empty"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err == nil {
		t.Fatal("-mdb with -empty accepted")
	}
}

func TestParseFlagsWALAndIdle(t *testing.T) {
	o, err := parseFlags([]string{
		"-wal-dir", "/tmp/wal", "-wal-sync", "interval",
		"-wal-interval", "20ms", "-idle-timeout", "90s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	cfg := o.cloudConfig(nil)
	if cfg.WALDir != "/tmp/wal" || cfg.WALSync != wal.SyncInterval ||
		cfg.WALSyncInterval != 20*time.Millisecond || cfg.IdleTimeout != 90*time.Second {
		t.Fatalf("durability flags not mapped onto config: %+v", cfg)
	}
	// The default policy is the safe one: ack only after fsync.
	def, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := def.cloudConfig(nil); got.WALSync != wal.SyncAlways {
		t.Fatalf("default -wal-sync maps to %v, want always", got.WALSync)
	}
}

func TestValidateRejectsBadWALFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-wal-sync", "sometimes"},
		{"-wal-interval", "-1s"},
		{"-idle-timeout", "-5s"},
	} {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}
