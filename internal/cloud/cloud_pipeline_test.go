package cloud

import (
	"context"
	"net"
	"testing"
	"time"

	"emap/internal/proto"
	"emap/internal/synth"
)

// uploadFrom builds a valid upload payload from the test generator.
func uploadFrom(t testing.TB, samples []float64, seq uint32) []byte {
	t.Helper()
	counts, scale := proto.Quantize(samples)
	return proto.EncodeUpload(&proto.Upload{Seq: seq, Scale: scale, Samples: counts})
}

// TestPipelinedUploadsOutOfOrder proves the acceptance criterion: ≥2
// uploads in flight concurrently on one connection, completing out of
// order, each reply matched to its request by the frame ID.
func TestPipelinedUploadsOutOfOrder(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan uint32, 3)
	releaseFirst := make(chan struct{})
	srv.searchHook = func(u *proto.Upload) {
		inFlight <- u.Seq
		if u.Seq == 11 {
			<-releaseFirst // hold request 11 until the others finish
		}
	}

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	for _, id := range []uint32{11, 12, 13} {
		if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, id, "", uploadFrom(t, window, id)); err != nil {
			t.Fatal(err)
		}
	}

	// Wait until all three are dispatched; request 11 is pinned in
	// its worker, so at that moment ≥2 requests were concurrently in
	// flight on this one connection.
	for i := 0; i < 3; i++ {
		select {
		case <-inFlight:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d uploads reached the workers; pipelining is broken", i)
		}
	}
	if peak := srv.Metrics.PeakInFlight.Load(); peak < 2 {
		t.Fatalf("peak in-flight %d, want ≥2", peak)
	}

	read := func() proto.Frame {
		t.Helper()
		cConn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := proto.ReadFrameAny(cConn)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// With 11 held, the first two replies must be 12 and 13 — the
	// completion order differs from the issue order.
	got := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		f := read()
		if f.Version != proto.Version3 || f.Type != proto.TypeCorrSet {
			t.Fatalf("reply %d: version %d type %d", i, f.Version, f.Type)
		}
		if f.ID == 11 {
			t.Fatal("held request overtook the others: completion was not out of order")
		}
		cs, err := proto.DecodeCorrSet(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Seq != f.ID {
			t.Fatalf("payload seq %d under frame ID %d: reply matched to wrong request", cs.Seq, f.ID)
		}
		got[f.ID] = true
	}
	if !got[12] || !got[13] {
		t.Fatalf("early replies were %v, want {12,13}", got)
	}
	close(releaseFirst)
	if f := read(); f.ID != 11 {
		t.Fatalf("final reply ID %d, want 11", f.ID)
	}
	if fl := srv.Metrics.InFlight.Load(); fl != 0 {
		t.Fatalf("in-flight gauge did not return to zero: %d", fl)
	}
	if srv.Metrics.Requests.Load() != 3 {
		t.Fatalf("requests = %d", srv.Metrics.Requests.Load())
	}
	if srv.Metrics.MeanLatency() <= 0 {
		t.Fatal("mean latency not recorded")
	}
}

// TestWriteErrorTearsDownConn: a failed reply write must terminate
// the connection handler instead of looping on a dead conn.
func TestWriteErrorTearsDownConn(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	handlerDone := make(chan struct{})
	go func() {
		srv.HandleConn(sConn)
		close(handlerDone)
	}()

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	// net.Pipe is synchronous: once this write returns, the server
	// has consumed the frame. Closing before reading the reply makes
	// the server's write fail.
	if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, 0, "", uploadFrom(t, window, 1)); err != nil {
		t.Fatal(err)
	}
	cConn.Close()
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("handler kept running after a write error")
	}
}

// TestShutdownDrains: Shutdown must let in-flight searches finish and
// their replies flush before closing connections.
func TestShutdownDrains(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan struct{})
	release := make(chan struct{})
	srv.searchHook = func(u *proto.Upload) {
		close(held)
		<-release
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	if err := proto.NewFrameWriter(conn).WriteFrame(proto.TypeUpload, 42, "", uploadFrom(t, window, 42)); err != nil {
		t.Fatal(err)
	}
	<-held

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	close(release)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := proto.ReadFrameAny(conn)
	if err != nil {
		t.Fatalf("drained reply lost: %v", err)
	}
	if f.ID != 42 || f.Type != proto.TypeCorrSet {
		t.Fatalf("drained reply: %+v", f)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}

// TestShutdownDeadline: a Shutdown whose context expires must
// force-close and report the context error.
func TestShutdownDeadline(t *testing.T) {
	store, g := testStore(t)
	srv, err := NewServer(store, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	held := make(chan struct{})
	srv.searchHook = func(u *proto.Upload) {
		close(held)
		<-release
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	if err := proto.NewFrameWriter(conn).WriteFrame(proto.TypeUpload, 1, "", uploadFrom(t, window, 1)); err != nil {
		t.Fatal(err)
	}
	<-held
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown error = %v, want deadline exceeded", err)
	}
}

// TestServerHelloNegotiation: the server answers every Hello — whatever
// version the peer names — with a Hello naming Version3 under the
// request's ID, since there is one layout and nothing to negotiate; a
// malformed Hello is refused with a 400 and the connection stays up.
func TestServerHelloNegotiation(t *testing.T) {
	store, _ := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	exchange := func(id uint32, payload []byte) proto.Frame {
		t.Helper()
		if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeHello, id, "", payload); err != nil {
			t.Fatal(err)
		}
		cConn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := proto.ReadFrameAny(cConn)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for id, announce := range []uint8{proto.Version3, 2, 1, 9} {
		f := exchange(uint32(id), proto.EncodeHello(&proto.Hello{Version: announce}))
		if f.Type != proto.TypeHello || f.ID != uint32(id) {
			t.Fatalf("announced %d: reply type %d ID %d", announce, f.Type, f.ID)
		}
		h, err := proto.DecodeHello(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if h.Version != proto.Version3 {
			t.Fatalf("announced %d: answered %d, want %d", announce, h.Version, proto.Version3)
		}
	}
	if f := exchange(7, []byte{3}); f.Type != proto.TypeError || f.ID != 7 {
		t.Fatalf("malformed hello: reply type %d ID %d, want an error", f.Type, f.ID)
	}
	if f := exchange(8, proto.EncodeHello(&proto.Hello{Version: proto.Version3})); f.Type != proto.TypeHello {
		t.Fatalf("hello after a refused one: reply type %d", f.Type)
	}
}
