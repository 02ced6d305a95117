package cloud

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emap/internal/proto"
)

// gateHandler is a FrameHandler that counts the requests inside it and,
// while hold is set, keeps each there until release is closed.
type gateHandler struct {
	cur, peak atomic.Int64
	entered   chan struct{} // one send per held request
	release   chan struct{}
	hold      atomic.Bool
}

func (h *gateHandler) ServeFrame(f proto.Frame) (proto.MsgType, []byte) {
	n := h.cur.Add(1)
	defer h.cur.Add(-1)
	for {
		peak := h.peak.Load()
		if n <= peak || h.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	if h.hold.Load() {
		h.entered <- struct{}{}
		<-h.release
	}
	return proto.TypePong, nil
}

// settlesAt waits for the process's goroutine count to come down to n:
// a goroutine that has been told to end takes a moment to be gone.
func settlesAt(t *testing.T, n int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the connection", what, runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelinedRequestsRunOnConnectionWorkers: a burst of pipelined
// requests four times MaxInFlight deep is served by exactly MaxInFlight
// goroutines — the reader stops taking frames while all are busy — and
// the same goroutines, parked in between, serve every later request;
// once the peer hangs up they end with the connection.
func TestPipelinedRequestsRunOnConnectionWorkers(t *testing.T) {
	const maxInFlight, burst = 3, 12
	h := &gateHandler{entered: make(chan struct{}, burst), release: make(chan struct{})}
	h.hold.Store(true)
	tr := NewTransport(h, TransportConfig{MaxInFlight: maxInFlight})
	before := runtime.NumGoroutine()
	cConn, sConn := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		tr.HandleConn(sConn)
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := uint32(1); id <= burst; id++ {
			if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeIngest, id, "", nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < maxInFlight; i++ {
		<-h.entered
	}
	// Every worker is held and the reader is blocked handing over the
	// next frame: nothing more may enter however long the peer waits.
	select {
	case <-h.entered:
		t.Fatalf("more than MaxInFlight = %d requests inside the handler", maxInFlight)
	case <-time.After(50 * time.Millisecond):
	}
	h.hold.Store(false)
	close(h.release)
	replies := func(n int) {
		t.Helper()
		cConn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < n; i++ {
			if f, err := proto.ReadFrameAny(cConn); err != nil || f.Type != proto.TypePong {
				t.Fatalf("reply %d: type %d, %v", i, f.Type, err)
			}
		}
	}
	replies(burst)
	wg.Wait()
	if peak := h.peak.Load(); peak != maxInFlight {
		t.Fatalf("peak concurrency %d, want MaxInFlight = %d", peak, maxInFlight)
	}
	// Reader (HandleConn's caller), writer and the workers, parked; one
	// request at a time now finds a parked worker every time.
	conn := runtime.NumGoroutine()
	if conn > before+2+maxInFlight {
		t.Fatalf("%d goroutines for one connection with MaxInFlight %d", conn-before, maxInFlight)
	}
	for id := uint32(100); id < 200; id++ {
		if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeIngest, id, "", nil); err != nil {
			t.Fatal(err)
		}
		replies(1)
		if n := runtime.NumGoroutine(); n > conn {
			t.Fatalf("request %d started a goroutine (%d, were %d)", id, n, conn)
		}
	}
	cConn.Close()
	<-served
	settlesAt(t, before, "after the peer hung up")
}

// TestShutdownMidBurstEndsTheWorkers: a drain that arrives while every
// worker holds a request and the reader is blocked on the next one lets
// each request the connection has taken finish and flush, and then no
// goroutine of the connection is left.
func TestShutdownMidBurstEndsTheWorkers(t *testing.T) {
	const maxInFlight, burst = 3, 12
	h := &gateHandler{entered: make(chan struct{}, burst), release: make(chan struct{})}
	h.hold.Store(true)
	tr := NewTransport(h, TransportConfig{MaxInFlight: maxInFlight})
	before := runtime.NumGoroutine()
	cConn, sConn := net.Pipe()
	go tr.HandleConn(sConn)

	go func() {
		// The tail of the burst is refused by the drain: write errors
		// are the expected end of this goroutine.
		for id := uint32(1); id <= burst; id++ {
			if proto.NewFrameWriter(cConn).WriteFrame(proto.TypeIngest, id, "", nil) != nil {
				return
			}
		}
	}()
	for i := 0; i < maxInFlight; i++ {
		<-h.entered
	}
	var got atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			if _, err := proto.ReadFrameAny(cConn); err != nil {
				return
			}
			got.Add(1)
		}
	}()
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- tr.Shutdown(ctx)
	}()
	// Release the requests only once the drain has stopped the intake
	// (Shutdown plants the read deadlines in the same critical section).
	for draining := false; !draining; time.Sleep(time.Millisecond) {
		tr.mu.Lock()
		draining = tr.draining
		tr.mu.Unlock()
	}
	h.hold.Store(false)
	close(h.release)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-readerDone
	cConn.Close()
	// The held requests, and the one frame the blocked reader had already
	// taken off the wire, were answered.
	if n := got.Load(); n < maxInFlight || n > maxInFlight+1 {
		t.Fatalf("%d replies flushed by the drain, want the %d held (and at most the one the reader was handing over)", n, maxInFlight)
	}
	settlesAt(t, before, "after Shutdown")
}
