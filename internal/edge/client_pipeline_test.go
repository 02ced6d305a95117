package edge

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"emap/internal/cloud"
	"emap/internal/proto"
	"emap/internal/synth"
)

// answerHello consumes the client's Hello and answers it.
func answerHello(t *testing.T, conn net.Conn) {
	t.Helper()
	f, err := proto.ReadFrameAny(conn)
	if err != nil || f.Type != proto.TypeHello {
		t.Errorf("server: expected hello, got %+v, %v", f, err)
		return
	}
	payload := proto.EncodeHello(&proto.Hello{Version: proto.Version3})
	if err := proto.NewFrameWriter(conn).WriteFrame(proto.TypeHello, 0, "", payload); err != nil {
		t.Errorf("server: hello reply: %v", err)
	}
}

// TestClientMatchesOutOfOrderReplies: two concurrent Searches on one
// connection, the hand-rolled server replies in reverse order, and
// each caller must receive the reply for its own request (matched by
// frame ID).
func TestClientMatchesOutOfOrderReplies(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()

	go func() {
		answerHello(t, sConn)
		// Read both uploads first, then reply newest-first: the
		// wire order of replies is the reverse of the requests.
		var frames []proto.Frame
		for i := 0; i < 2; i++ {
			f, err := proto.ReadFrameAny(sConn)
			if err != nil {
				t.Errorf("server read %d: %v", i, err)
				return
			}
			frames = append(frames, f)
		}
		for i := len(frames) - 1; i >= 0; i-- {
			f := frames[i]
			u, err := proto.DecodeUpload(f.Payload)
			if err != nil {
				t.Errorf("server decode: %v", err)
				return
			}
			// Tag the reply with the request's window length so
			// the caller can verify it got its own answer.
			cs := &proto.CorrSet{Seq: f.ID, Entries: []proto.CorrEntry{
				{SetID: 1, Beta: int32(len(u.Samples))}}}
			if err := proto.NewFrameWriter(sConn).WriteFrame(proto.TypeCorrSet, f.ID, "", proto.EncodeCorrSet(cs)); err != nil {
				t.Errorf("server write: %v", err)
				return
			}
		}
	}()

	client, err := NewClient(cConn)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	lens := []int{256, 300}
	results := make([]*proto.CorrSet, len(lens))
	errs := make([]error, len(lens))
	var wg sync.WaitGroup
	for i, n := range lens {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			results[i], errs[i] = client.Search(ctx, make([]float64, n))
		}(i, n)
	}
	wg.Wait()
	for i, n := range lens {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		if got := int(results[i].Entries[0].Beta); got != n {
			t.Fatalf("search %d (window %d) received the reply for window %d: replies mismatched", i, n, got)
		}
	}
}

// TestClientSearchHonoursContext: a server that never replies must not
// hang a Search whose context expires.
func TestClientSearchHonoursContext(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	go func() {
		answerHello(t, sConn)
		proto.ReadFrameAny(sConn) // swallow the upload, never reply
	}()
	client, err := NewClient(cConn)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Search(ctx, make([]float64, 256))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("Search ignored the context deadline")
	}
}

// TestClientReconnects: after its connection dies, a Dial-built client
// must redial transparently on a later call.
func TestClientReconnects(t *testing.T) {
	store, g := buildStore(t)
	srv, err := cloud.NewServer(store, cloud.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	client, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]
	if _, err := client.Search(ctx, window); err != nil {
		t.Fatalf("first search: %v", err)
	}

	// Sever the transport underneath the client.
	client.mu.Lock()
	conn := client.conn
	client.mu.Unlock()
	conn.Close()

	// The next calls may observe the dead conn once; within a few
	// attempts the client must have redialled and succeeded.
	var ok bool
	for attempt := 0; attempt < 5 && !ok; attempt++ {
		if _, err := client.Search(ctx, window); err == nil {
			ok = true
		}
	}
	if !ok {
		t.Fatal("client never reconnected")
	}
	if srv.Metrics.Connections.Load() < 2 {
		t.Fatalf("server saw %d connections, want ≥2 (reconnect)", srv.Metrics.Connections.Load())
	}
}
