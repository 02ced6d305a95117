package cloud

import (
	"net"
	"testing"
	"time"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

func testStore(t testing.TB) (*mdb.Store, *synth.Generator) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 71, ArchetypesPerClass: 2})
	var recs []*synth.Recording
	for arch := 0; arch < 2; arch++ {
		for i := 0; i < 3; i++ {
			recs = append(recs, g.Instance(synth.Normal, arch, synth.InstanceOpts{
				OffsetSamples: i * 5000, DurSeconds: 60}))
		}
	}
	store, err := mdb.Build(recs, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return store, g
}

func TestSearchAnswersUpload(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	counts, scale := proto.Quantize(input.Samples[1024:1280])
	corrSet, err := srv.Search(&proto.Upload{Seq: 9, Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	if corrSet.Seq != 9 {
		t.Fatalf("seq echo = %d", corrSet.Seq)
	}
	for _, e := range corrSet.Entries {
		if e.Omega <= 0.8 {
			t.Fatalf("entry below δ: %g", e.Omega)
		}
		if len(e.Samples) == 0 {
			t.Fatal("entry carries no continuation samples")
		}
	}
}

func TestHorizonClipsAtRecordingEnd(t *testing.T) {
	store, g := testStore(t)
	// A huge horizon must degrade gracefully to whatever the parent
	// recording still holds, never erroring or overrunning.
	srv, err := NewServer(store, Config{HorizonSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	counts, scale := proto.Quantize(input.Samples[1024:1280])
	corrSet, err := srv.Search(&proto.Upload{Seq: 1, Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corrSet.Entries {
		if len(e.Samples) < 256 {
			t.Fatalf("clipped entry too short: %d", len(e.Samples))
		}
	}
}

// TestContinuationClipsExactlyAtRecordEnd is the regression test for
// the horizon-clipping fix: a match near the end of its parent
// recording must receive every remaining sample, not the remainder
// rounded down to a whole number of windows (which silently dropped up
// to ~1 s of continuation).
func TestContinuationClipsExactlyAtRecordEnd(t *testing.T) {
	g := synth.NewGenerator(synth.Config{Seed: 5, ArchetypesPerClass: 1})
	rec := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 30})
	store := mdb.NewStore()
	// 5000 stored samples → signal-sets at 0..4000; a match at
	// absolute offset 4500 has exactly 500 samples of continuation,
	// which is not a multiple of the 256-sample window.
	if _, err := store.Insert(&mdb.Record{ID: "r", Samples: rec.Samples[:5000]}, 1000, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, Config{HorizonSeconds: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts, scale := proto.Quantize(rec.Samples[4500:4756])
	corrSet, err := srv.Search(&proto.Upload{Seq: 1, Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range corrSet.Entries {
		if e.SetID == 4 && e.Beta == 500 { // the exact-copy match
			found = true
			if len(e.Samples) != 500 {
				t.Fatalf("continuation = %d samples, want exactly the 500 remaining in the recording", len(e.Samples))
			}
		}
	}
	if !found {
		t.Fatal("exact-copy window was not retrieved at its true offset")
	}
}

func TestServeStopsOnClose(t *testing.T) {
	store, _ := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestHandleConnAfterCloseRejected(t *testing.T) {
	store, _ := testStore(t)
	srv, _ := NewServer(store, Config{})
	_ = srv.Close()
	a, b := net.Pipe()
	defer a.Close()
	go srv.HandleConn(b)
	// The server must close the connection immediately.
	a.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := a.Read(buf); err == nil {
		t.Fatal("connection should be closed by a closed server")
	}
}

func TestMetricsCount(t *testing.T) {
	store, g := testStore(t)
	srv, _ := NewServer(store, Config{})
	a, b := net.Pipe()
	defer a.Close()
	go srv.HandleConn(b)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	counts, scale := proto.Quantize(input.Samples[1024:1280])
	payload := proto.EncodeUpload(&proto.Upload{Seq: 1, Scale: scale, Samples: counts})
	if err := proto.NewFrameWriter(a).WriteFrame(proto.TypeUpload, 0, "", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.ReadFrameAny(a); err != nil {
		t.Fatal(err)
	}
	if srv.Metrics.Requests.Load() != 1 || srv.Metrics.Connections.Load() != 1 {
		t.Fatalf("metrics: %d requests, %d connections",
			srv.Metrics.Requests.Load(), srv.Metrics.Connections.Load())
	}
}
