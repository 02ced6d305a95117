package cloud

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"emap/internal/proto"
	"emap/internal/synth"
)

// TestBatchCoalescesQueuedUploads: concurrent distinct uploads on one
// connection must be served by fewer search passes than uploads — the
// group-commit collector coalesces whatever queues behind the single
// worker, and every reply still carries its own query's result.
func TestBatchCoalescesQueuedUploads(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{
		Workers:     1,
		BatchWindow: 200 * time.Millisecond,
		CacheSize:   -1, // isolate the collector from the cache
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	for id := uint32(1); id <= 3; id++ {
		// Offset each window by one sample so the three queries are
		// genuinely distinct (no dedup, no cache — pure batching).
		w := input.Samples[1024+id : 1280+id]
		if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, id, "", uploadFrom(t, w, id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cConn.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := proto.ReadFrameAny(cConn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != proto.TypeCorrSet {
			t.Fatalf("reply %d: type %d", i, f.Type)
		}
		cs, err := proto.DecodeCorrSet(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Seq != f.ID {
			t.Fatalf("reply fan-out crossed wires: seq %d under frame ID %d", cs.Seq, f.ID)
		}
	}
	if batches := srv.Metrics.Batches.Load(); batches >= 3 {
		t.Fatalf("3 queued uploads took %d search passes; collector did not coalesce", batches)
	}
	if mean := srv.Metrics.BatchSizeMean(); mean <= 1 {
		t.Fatalf("BatchSizeMean = %g, want > 1", mean)
	}
}

// TestBatchServesIdenticalUploadsWithOneScan is the server-level scan
// amortization proof: B concurrent identical uploads through the
// batched path cost the ω evaluations of ONE upload — the batch search
// deduplicates them onto a single shard pass. (The correlation-set
// cache is disabled so the scans themselves are measured.)
func TestBatchServesIdenticalUploadsWithOneScan(t *testing.T) {
	store, g := testStore(t)
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	counts, scale := proto.Quantize(input.Samples[1024:1280])

	// Baseline: the evaluation cost of this window searched alone.
	ref, err := NewServer(store, Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Search(&proto.Upload{Seq: 1, Scale: scale, Samples: counts}); err != nil {
		t.Fatal(err)
	}
	soloEvals := ref.Metrics.Evaluations.Load()
	if soloEvals == 0 {
		t.Fatal("baseline search evaluated nothing")
	}

	srv, err := NewServer(store, Config{
		Workers:     1,
		BatchWindow: 250 * time.Millisecond,
		CacheSize:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	const B = 4
	payload := proto.EncodeUpload(&proto.Upload{Seq: 1, Scale: scale, Samples: counts})
	for id := uint32(1); id <= B; id++ {
		if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, id, "", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < B; i++ {
		cConn.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := proto.ReadFrameAny(cConn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != proto.TypeCorrSet {
			t.Fatalf("reply %d: type %d", i, f.Type)
		}
	}
	if batches := srv.Metrics.Batches.Load(); batches != 1 {
		t.Fatalf("%d identical uploads took %d batches, want 1", B, batches)
	}
	if evals := srv.Metrics.Evaluations.Load(); evals != soloEvals {
		t.Fatalf("batch of %d identical uploads evaluated %d ω, want the one-upload cost %d",
			B, evals, soloEvals)
	}
}

// TestMaxBatchOneDisablesCoalescing: MaxBatch 1 must restore the
// one-search-per-upload behaviour.
func TestMaxBatchOneDisablesCoalescing(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{
		Workers: 1, MaxBatch: 1, BatchWindow: 50 * time.Millisecond, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	for id := uint32(1); id <= 3; id++ {
		w := input.Samples[1024+id : 1280+id]
		if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, id, "", uploadFrom(t, w, id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cConn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := proto.ReadFrameAny(cConn); err != nil {
			t.Fatal(err)
		}
	}
	if batches := srv.Metrics.Batches.Load(); batches != 3 {
		t.Fatalf("MaxBatch=1: %d batches for 3 uploads, want 3", batches)
	}
}

// TestShutdownCancelsBatchWindow: a batch leader sitting out a long
// collection window must abort the wait when the server stops, so a
// graceful drain is not delayed by up to a full BatchWindow.
func TestShutdownCancelsBatchWindow(t *testing.T) {
	store, g := testStore(t)
	const window = 30 * time.Second // would dwarf the drain budget below
	srv, err := NewServer(store, Config{
		Workers:     1,
		BatchWindow: window,
		CacheSize:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	w := input.Samples[1024:1280]
	if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, 1, "", uploadFrom(t, w, 1)); err != nil {
		t.Fatal(err)
	}
	// The reply must arrive once Shutdown cancels the window — read it
	// concurrently so the server's writer is never blocked on us.
	got := make(chan error, 1)
	go func() {
		cConn.SetReadDeadline(time.Now().Add(20 * time.Second))
		f, err := proto.ReadFrameAny(cConn)
		if err == nil && f.Type != proto.TypeCorrSet {
			err = fmt.Errorf("reply type %d, want CorrSet", f.Type)
		}
		got <- err
	}()

	// Let the upload reach the collector and start its window wait.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics.Requests.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("upload never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= window/2 {
		t.Fatalf("Shutdown took %v: batch window wait not cancelled", elapsed)
	}
	if err := <-got; err != nil {
		t.Fatalf("in-flight upload not answered during drain: %v", err)
	}
}
