// Multi-tenant cloud: one emap-cloud process serving several patients'
// independently growing mega-databases — the paper's "recordings are
// continuously inserted into MongoDB", scaled to many tenants. Two
// edge devices name their own stores in every frame; each starts empty,
// ingests its patient's history, then monitors live, while a third
// device that names no tenant lands on the default tenant. At the end every tenant store is
// persisted to a registry directory and the per-tenant metrics show
// the isolation.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"emap"
	"emap/internal/edge"
)

func main() {
	ctx := context.Background()
	gen := emap.NewGeneratorConfig(emap.GeneratorConfig{Seed: 99, ArchetypesPerClass: 4})

	// Cloud tier: a registry-backed multi-tenant server. The default
	// tenant gets a pre-built store (for tenant-less edges); the patient
	// tenants start empty and are filled over the wire.
	dir, err := os.MkdirTemp("", "emap-tenants-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := emap.BuildMDBFromCorpora(gen, 6)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := emap.NewCloud(store,
		emap.WithRegistryDir(dir),
		emap.WithMaxTenants(16),
	)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	fmt.Printf("cloud: multi-tenant registry on %s (snapshots in %s)\n", l.Addr(), dir)

	// Each patient tenant ingests its own history — the same store
	// grows while the next step searches it.
	for pi, tenant := range []string{"patient-a", "patient-b"} {
		client, err := edge.DialTenant(l.Addr().String(), tenant, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		dev, err := edge.NewDevice(client, edge.Config{Tenant: tenant})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			rec := gen.Instance(emap.Seizure, pi, emap.InstanceOpts{
				OffsetSamples: 30000 + i*8000, DurSeconds: 60})
			sets, err := dev.Ingest(ctx, rec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s: ingested %s (+%d signal-sets)\n", tenant, rec.ID, sets)
		}

		// Monitor against the tenant's own freshly grown store.
		input := gen.SeizureInput(pi, 25, 12)
		for k := 0; k+256 <= len(input.Samples); k += 256 {
			if _, err := dev.Push(ctx, input.Samples[k:k+256]); err != nil {
				log.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("%s: verdict anomalous=%v\n", tenant, dev.Predictor().Anomalous())
		client.Close()
	}

	// An edge that names no tenant lands on the default store.
	plain, err := edge.Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	win := make([]float64, 256)
	rec := gen.Instance(emap.Normal, 0, emap.InstanceOpts{OffsetSamples: 9000, DurSeconds: 2})
	copy(win, rec.Samples[:256])
	if _, err := plain.Search(ctx, win); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tenant-less edge: served from tenant %q\n", emap.DefaultTenant)
	plain.Close()

	// Per-tenant isolation is visible in the metrics…
	for _, tenant := range []string{"patient-a", "patient-b", emap.DefaultTenant} {
		m := srv.MetricsFor(tenant)
		fmt.Printf("tenant %-10s  %3d requests, %d ingests, cache %d/%d\n", tenant,
			m.Requests.Load(), m.Ingests.Load(),
			m.CacheHits.Load(), m.CacheHits.Load()+m.CacheMisses.Load())
	}

	// …and shutdown persists every tenant store for the next start.
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := srv.Registry().Close(); err != nil {
		log.Fatalf("persisting tenants: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	fmt.Printf("persisted %d tenant snapshots\n", len(entries))
}
