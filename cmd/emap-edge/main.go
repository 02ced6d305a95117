// Command emap-edge runs the edge tier: it streams a synthetic
// biosignal recording through the acquisition pipeline, uploads
// one-second windows to a running emap-cloud, tracks the returned
// correlation sets locally, and prints per-second anomaly
// probabilities.
//
// Usage:
//
//	emap-edge [-addr localhost:7300] [-class seizure] [-lead 30]
//	          [-seconds 30] [-seed 2020] [-arch 0]
//	          [-tenant ID] [-modality eeg] [-ingest]
//	          [-connect-retries 5] [-keepalive 30s] [-refresh-retries 5]
//
// -tenant routes every request to the named cloud tenant store
// (empty: the server's default tenant); -ingest additionally
// contributes the streamed recording to that store afterwards, so the
// tenant's mega-database grows with each session. -modality ecg
// monitors the second signal kind (classes ecg-normal|arrhythmia) and
// lands all cloud traffic in the modality-suffixed tenant namespace
// ("<tenant>-ecg"), keeping ECG signal-sets out of the EEG
// mega-database.
//
// The connection is resilient by default: the initial connect retries
// with exponential backoff (-connect-retries attempts), an idle link
// is probed and repaired by a keepalive every -keepalive (0 disables),
// and mid-stream outages show up as DEGRADED status lines while the
// device retries in the background — Ctrl-C interrupts any of it
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emap"
	"emap/internal/backoff"
	"emap/internal/edge"
	"emap/internal/synth"
)

// connect dials the cloud with bounded, backoff-paced retries, giving
// up early when ctx is cancelled (Ctrl-C must not wait out a sleep).
func connect(ctx context.Context, addr, tenant string, retries int, keepalive time.Duration) (*edge.Client, error) {
	if retries < 1 {
		retries = 1 // -connect-retries 0 still means one attempt
	}
	pol := backoff.Policy{}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			fmt.Printf("connect attempt %d/%d failed (%v); retrying\n", attempt, retries, lastErr)
			if err := pol.Sleep(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		client, err := edge.DialOpts(addr, edge.ClientOptions{
			Tenant:      tenant,
			DialTimeout: 5 * time.Second,
			Keepalive:   keepalive,
		})
		if err == nil {
			return client, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func main() {
	addr := flag.String("addr", "localhost:7300", "cloud address")
	className := flag.String("class", "seizure", "input class: normal|seizure|encephalopathy|stroke (eeg) or ecg-normal|arrhythmia (ecg)")
	lead := flag.Float64("lead", 30, "seizure inputs: seconds before onset")
	seconds := flag.Float64("seconds", 30, "input duration")
	seed := flag.Uint64("seed", 2020, "generator seed (match the cloud's for retrievable inputs)")
	arch := flag.Int("arch", 0, "input archetype index")
	realtime := flag.Bool("realtime", false, "pace the stream at one window per second")
	timeout := flag.Duration("timeout", 30*time.Second, "per-exchange cloud timeout")
	tenant := flag.String("tenant", "", "cloud tenant/store ID (empty: server default)")
	modality := flag.String("modality", "eeg", "signal modality: eeg|ecg (ecg suffixes the tenant namespace)")
	ingest := flag.Bool("ingest", false, "contribute the streamed recording to the tenant store afterwards")
	connectRetries := flag.Int("connect-retries", 5, "initial connection attempts (exponential backoff between them)")
	keepalive := flag.Duration("keepalive", 30*time.Second, "idle-connection probe interval (0 disables)")
	refreshRetries := flag.Int("refresh-retries", 5, "cloud attempts per background refresh cycle during an outage")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var class emap.Class
	found := false
	for _, c := range synth.ClassesFor(*modality) {
		if c.String() == *className {
			class, found = c, true
		}
	}
	if !found {
		log.Fatalf("emap-edge: unknown class %q for modality %q", *className, *modality)
	}

	gen := emap.NewGenerator(*seed)
	var input *emap.Recording
	switch class {
	case emap.Seizure:
		input = gen.SeizureInput(*arch, *lead, *seconds)
	case emap.Arrhythmia:
		input = gen.ArrhythmiaInput(*arch, *lead, *seconds)
	default:
		input = gen.Instance(class, *arch, emap.InstanceOpts{
			OffsetSamples: 3000, DurSeconds: *seconds})
	}

	client, err := connect(ctx, *addr, *tenant, *connectRetries, *keepalive)
	if err != nil {
		log.Fatalf("emap-edge: %v", err)
	}
	defer client.Close()
	if err := client.Ping(ctx); err != nil {
		log.Fatalf("emap-edge: cloud not responding: %v", err)
	}
	dev, err := edge.NewDevice(client, edge.Config{
		CloudTimeout:   *timeout,
		Tenant:         *tenant,
		Modality:       *modality,
		RefreshRetries: *refreshRetries,
	})
	if err != nil {
		log.Fatalf("emap-edge: %v", err)
	}
	defer dev.Close()
	fmt.Printf("connected to %s", *addr)
	// The device derives the effective tenant from -tenant and
	// -modality (e.g. ward-7 + ecg → ward-7-ecg).
	if t := client.Tenant(); t != "" {
		fmt.Printf(", tenant %q", t)
	}
	fmt.Println()

	fmt.Printf("streaming %s (%s, %.0f s) to %s\n", input.ID, class, *seconds, *addr)
	for k := 0; k+256 <= len(input.Samples); k += 256 {
		if ctx.Err() != nil {
			fmt.Println("interrupted")
			break
		}
		st, err := dev.Push(ctx, input.Samples[k:k+256])
		if errors.Is(err, context.Canceled) || (err != nil && ctx.Err() != nil) {
			fmt.Println("interrupted")
			break
		}
		if err != nil {
			log.Fatalf("emap-edge: slot %d: %v", k/256, err)
		}
		marker := ""
		if st.CloudCalled {
			marker = "  [cloud call]"
		}
		if st.Degraded {
			marker += fmt.Sprintf("  [DEGRADED: %d failures, last: %v]",
				st.ConsecutiveFailures, st.LastCloudErr)
		}
		if st.Tracking {
			fmt.Printf("t=%3ds  P_A=%.2f  tracking %3d signals  anomalous=%v%s\n",
				st.Window, st.PA, st.Remaining, st.Anomalous, marker)
		} else {
			fmt.Printf("t=%3ds  (acquiring)%s\n", st.Window, marker)
		}
		if *realtime {
			// Pace without ignoring the signal context: Ctrl-C must
			// interrupt the wait, not sit out the remaining second.
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
			}
		}
	}
	fmt.Printf("final decision: anomalous=%v (peak smoothed P_A %.2f)\n",
		dev.Predictor().Anomalous(), dev.Predictor().PeakSmoothed())

	if *ingest && ctx.Err() == nil {
		sets, err := dev.Ingest(ctx, input)
		if err != nil {
			log.Fatalf("emap-edge: ingest: %v", err)
		}
		fmt.Printf("ingested %s into tenant store (+%d signal-sets)\n", input.ID, sets)
	}
}
