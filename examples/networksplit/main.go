// Network split: run the cloud and edge tiers as separate components
// connected over a real TCP socket — the deployment of the paper's
// Fig. 1, in one process — and then cut the link mid-session. A
// netsim.Partition severs the connection while the edge streams a
// preictal recording: the device flags the outage on its Status
// (Degraded, ConsecutiveFailures, LastCloudErr), keeps estimating P_A
// on the last downloaded correlation set, and retries the cloud with
// exponential backoff. When the partition heals, the client reconnects
// and the device re-adopts a fresh correlation set — no slot in the
// whole session goes unanswered.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"emap"
	"emap/internal/backoff"
	"emap/internal/cloud"
	"emap/internal/edge"
	"emap/internal/netsim"
)

func main() {
	ctx := context.Background()

	// A small archetype pool keeps the per-corpus draws dense enough
	// that every archetype is well represented.
	gen := emap.NewGeneratorConfig(emap.GeneratorConfig{Seed: 99, ArchetypesPerClass: 4})

	// Cloud tier: build the MDB from the five emulated corpora and
	// serve it on a loopback TCP listener whose connections run
	// through a fault injector.
	store, err := emap.BuildMDBFromCorpora(gen, 10)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := cloud.NewServer(store, cloud.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	part := netsim.NewPartition()
	go srv.Serve(part.Listen(l))
	fmt.Printf("cloud: serving %d signal-sets on %s (4 workers, fault injector armed)\n",
		store.NumSets(), l.Addr())

	// Edge tier: dial with the health layer on — keepalive probes and
	// backoff-paced reconnects — and quick refresh retries so the demo
	// compresses an outage into a few hundred milliseconds.
	quick := backoff.Policy{Min: 20 * time.Millisecond, Max: 200 * time.Millisecond}
	client, err := edge.DialOpts(l.Addr().String(), edge.ClientOptions{
		DialTimeout:    2 * time.Second,
		RedialAttempts: 2,
		Redial:         quick,
		Keepalive:      500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	dev, err := edge.NewDevice(client, edge.Config{
		CloudTimeout:   2 * time.Second,
		Refresh:        quick,
		RefreshRetries: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dev.Close()

	input := gen.SeizureInput(2, 25, 30)
	windows := len(input.Samples) / 256
	splitAt, healAt := windows/3, 2*windows/3
	fmt.Printf("edge:  streaming %s (%d windows; split at %d, heal at %d)\n\n",
		input.ID, windows, splitAt, healAt)

	degradedSlots := 0
	for k := 0; k < windows; k++ {
		switch k {
		case splitAt:
			part.Split()
			fmt.Println("  --- network split: link severed ---")
		case healAt:
			part.Heal()
			fmt.Println("  --- network healed ---")
		}
		st, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256])
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case st.Degraded:
			degradedSlots++
			fmt.Printf("  t=%2ds  P_A=%.2f  DEGRADED (failures=%d, stale set of %d signals)\n",
				st.Window, st.PA, st.ConsecutiveFailures, st.Remaining)
		case st.Tracking:
			fmt.Printf("  t=%2ds  P_A=%.2f  %3d signals tracked\n", st.Window, st.PA, st.Remaining)
		}
		// Light pacing: give background cloud refreshes time to land,
		// as real-time sampling would (use a full second per slot on
		// a real deployment).
		time.Sleep(40 * time.Millisecond)
	}
	// Allow an in-flight background refresh to settle before the
	// final verdict.
	time.Sleep(200 * time.Millisecond)
	fmt.Printf("\nedge verdict: anomalous=%v\n", dev.Predictor().Anomalous())
	fmt.Printf("outage: %d degraded slots; client dialled %d times, reconnected %d, lost %d conns\n",
		degradedSlots, client.Metrics.Dials.Load(), client.Metrics.Reconnects.Load(),
		client.Metrics.ConnLost.Load())

	// Drain the cloud: in-flight searches complete, replies flush,
	// then the listener and connections close.
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	dev.Close()
	client.Close()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	fmt.Printf("cloud handled %d requests (mean latency %v, peak in-flight %d)\n",
		srv.Metrics.Requests.Load(), srv.Metrics.MeanLatency(), srv.Metrics.PeakInFlight.Load())
}
