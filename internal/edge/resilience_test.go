package edge

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emap/internal/backoff"
	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/netsim"
	"emap/internal/proto"
	"emap/internal/synth"
)

// fastBackoff keeps resilience tests quick while still exercising the
// exponential schedule.
func fastBackoff() backoff.Policy {
	return backoff.Policy{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond}
}

// buildResilienceStore assembles a deliberately small MDB: partition
// tests compress a "one window per second" session into milliseconds,
// so searches must complete well inside the continuation horizon even
// under the race detector.
func buildResilienceStore(t testing.TB) (*mdb.Store, *synth.Generator) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 51, ArchetypesPerClass: 3})
	var recs []*synth.Recording
	for i := 0; i < 2; i++ {
		recs = append(recs,
			g.Instance(synth.Normal, 0, synth.InstanceOpts{
				OffsetSamples: i * 2000, DurSeconds: 60}),
			g.Instance(synth.Seizure, 0, synth.InstanceOpts{
				OffsetSamples: synth.PreictalAt*256 + i*2000, DurSeconds: 90}),
		)
	}
	store, err := mdb.Build(recs, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return store, g
}

// resilienceCloud serves a resilience store with a continuation
// horizon long enough that a race-slowed search still lands inside it.
func resilienceCloudConfig() cloud.Config {
	return cloud.Config{HorizonSeconds: 16}
}

// TestDevicePartitionHeal is the chaos acceptance test: a TCP-deployed
// device loses its cloud mid-stream to a fault-injected partition,
// must keep emitting Status (degraded, with the outage visible in the
// health fields) while retrying with backoff, and must re-adopt a
// fresh correlation set after the link heals.
func TestDevicePartitionHeal(t *testing.T) {
	store, g := buildResilienceStore(t)
	srv, err := cloud.NewServer(store, resilienceCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	part := netsim.NewPartition()
	go srv.Serve(part.Listen(l))
	defer srv.Close()

	client, err := DialOpts(l.Addr().String(), ClientOptions{
		DialTimeout:    time.Second,
		RedialAttempts: 2,
		Redial:         fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	dev, err := NewDevice(client, Config{
		CloudTimeout:   2 * time.Second,
		Refresh:        fastBackoff(),
		RefreshRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	input := g.SeizureInput(0, 30, 150)
	ctx := context.Background()
	push := func(k int) Status {
		st, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256])
		if err != nil {
			t.Fatalf("window %d: Push returned error during session: %v", k, err)
		}
		if st.Window != k {
			t.Fatalf("window %d: status for window %d", k, st.Window)
		}
		return st
	}
	windows := len(input.Samples) / 256

	// Phase 1: healthy streaming until tracking is established.
	const splitAt = 15
	tracked := false
	for k := 0; k < splitAt; k++ {
		st := push(k)
		if st.Degraded || st.LastCloudErr != nil {
			t.Fatalf("window %d: degraded while healthy: %+v", k, st)
		}
		tracked = tracked || st.Tracking
		time.Sleep(5 * time.Millisecond)
	}
	if !tracked {
		t.Fatal("device never started tracking before the split")
	}

	// Phase 2: hard split. The device must keep emitting a Status for
	// every slot, flag the outage, and keep the retry machinery
	// bounded: one refresh cycle at a time, attempts paced by backoff.
	part.Split()
	baseGoroutines := runtime.NumGoroutine()
	attemptsAtSplit := dev.Attempts()
	const outageWindows = 30
	statuses := 0
	sawDegraded := false
	maxConsecutive := 0
	for k := splitAt; k < splitAt+outageWindows; k++ {
		st := push(k)
		statuses++
		if st.Degraded {
			sawDegraded = true
			if st.LastCloudErr == nil {
				t.Fatalf("window %d: degraded but LastCloudErr nil", k)
			}
		}
		if st.ConsecutiveFailures > maxConsecutive {
			maxConsecutive = st.ConsecutiveFailures
		}
		time.Sleep(5 * time.Millisecond)
	}
	if statuses != outageWindows {
		t.Fatalf("device emitted %d statuses for %d outage slots", statuses, outageWindows)
	}
	if !sawDegraded {
		t.Fatal("device never reported Degraded during the outage")
	}
	if maxConsecutive < 2 {
		t.Fatalf("ConsecutiveFailures peaked at %d, want ≥ 2 (retries with backoff)", maxConsecutive)
	}
	if part.Drops.Load() == 0 && part.Severed.Load() == 0 {
		t.Fatal("partition never bit: the outage was not exercised")
	}
	// Boundedness: attempts must be paced by backoff, not one (or
	// more) per slot forever; goroutines must not pile up.
	attemptsDuringOutage := dev.Attempts() - attemptsAtSplit
	if attemptsDuringOutage > 2*outageWindows {
		t.Fatalf("%d cloud attempts over %d outage slots: retry not bounded", attemptsDuringOutage, outageWindows)
	}
	if attemptsDuringOutage == 0 {
		t.Fatal("no cloud attempts during the outage: retry machinery dead")
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines+10 {
		t.Fatalf("goroutines grew from %d to %d during the outage", baseGoroutines, g)
	}

	// Phase 3: heal. The device must re-adopt a fresh correlation set
	// and drop the degraded flag.
	part.Heal()
	recovered := false
	for k := splitAt + outageWindows; k < windows; k++ {
		st := push(k)
		if st.Tracking && !st.Degraded && st.Remaining > 0 {
			recovered = true
			break
		}
		// Generous pacing: a fresh search must land within the new
		// set's horizon for the adoption to be trackable.
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("device never re-adopted a fresh correlation set after heal")
	}
	if !client.Connected() {
		t.Fatal("client not reconnected after heal")
	}
	if client.Metrics.Reconnects.Load() == 0 {
		t.Fatal("client reports no reconnects across a severed link")
	}
}

// TestDeviceDegradedKeepsObserving: past the horizon with the cloud
// down, the device must re-arm the stale set and keep producing P_A
// estimates instead of going dark.
func TestDeviceDegradedKeepsObserving(t *testing.T) {
	store, g := buildResilienceStore(t)
	srv, err := cloud.NewServer(store, resilienceCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	part := netsim.NewPartition()
	go srv.Serve(part.Listen(l))
	defer srv.Close()

	client, err := DialOpts(l.Addr().String(), ClientOptions{
		DialTimeout: time.Second, RedialAttempts: 1, Redial: fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	dev, err := NewDevice(client, Config{
		CloudTimeout: time.Second, Refresh: fastBackoff(), RefreshRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	input := g.SeizureInput(0, 30, 60)
	ctx := context.Background()
	k := 0
	for ; k < 10; k++ {
		if _, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	part.Split()
	// Stream far past the downloaded horizon (≈7 windows): degraded
	// tracking must keep Remaining > 0 on re-armed stale sets.
	observed := 0
	for ; k < 40; k++ {
		st, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256])
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded && st.Tracking && st.Remaining > 0 {
			observed++
		}
		time.Sleep(5 * time.Millisecond)
	}
	if observed == 0 {
		t.Fatal("device went dark past the horizon: no degraded tracking observed")
	}
}

// TestDeviceCloseCancelsInflightRefresh: Close must cancel a refresh
// blocked on a blackholed link instead of leaking it past the device's
// life (the old code fetched with context.Background()).
func TestDeviceCloseCancelsInflightRefresh(t *testing.T) {
	store, g := buildResilienceStore(t)
	srv, err := cloud.NewServer(store, resilienceCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	part := netsim.NewPartition()
	go srv.Serve(part.Listen(l))
	defer srv.Close()

	client, err := DialOpts(l.Addr().String(), ClientOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// A long CloudTimeout: only Close can unblock the stalled fetch.
	dev, err := NewDevice(client, Config{CloudTimeout: time.Minute, Refresh: fastBackoff()})
	if err != nil {
		t.Fatal(err)
	}

	input := g.SeizureInput(0, 30, 60)
	ctx := context.Background()
	k := 0
	for ; k < 8; k++ {
		if _, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Blackhole the link, then push until a background refresh has
	// been in flight across several slots — with replies blackholed
	// and a one-minute CloudTimeout, that refresh is blocked and only
	// the device's own context can release it.
	part.StallLink()
	stuck := 0
	for ; k < 50 && stuck < 3; k++ {
		if _, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256]); err != nil {
			t.Fatal(err)
		}
		if dev.pending {
			stuck++
		} else {
			stuck = 0
		}
		time.Sleep(2 * time.Millisecond)
	}
	if stuck < 3 {
		t.Fatal("no background refresh got stuck against the blackholed link")
	}

	done := make(chan struct{})
	go func() {
		dev.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an in-flight refresh: device context not cancelling it")
	}
	part.Heal()
	if _, err := dev.Push(ctx, input.Samples[:256]); !errors.Is(err, ErrDeviceClosed) {
		t.Fatalf("Push after Close = %v, want ErrDeviceClosed", err)
	}
	if err := dev.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClientCloseFailsInflight: Close must fail waiting requests with
// ErrClosed immediately, not leave them hanging until the read loop
// notices the dead socket.
func TestClientCloseFailsInflight(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer sConn.Close()
	go func() {
		answerHello(t, sConn)
		proto.ReadFrameAny(sConn) // swallow the upload, never reply
	}()
	client, err := NewClient(cConn)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Search(context.Background(), make([]float64, 256))
		errCh <- err
	}()
	// Let the Search register and write before closing.
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Search after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the in-flight Search hanging")
	}
	// Calls after Close fail the same way.
	if _, err := client.Search(context.Background(), make([]float64, 256)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Search after Close = %v, want ErrClosed", err)
	}
}

// writeFailConn injects write failures underneath a live client.
type writeFailConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *writeFailConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestClientReconnectsAfterWriteError covers roundTrip's write-failure
// branch: the failed write retires the connection (consuming the
// waiter's own failure notice), and the next call redials.
func TestClientReconnectsAfterWriteError(t *testing.T) {
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

	c := newClient(ClientOptions{
		DialTimeout:    time.Second,
		RedialAttempts: 2,
		Redial:         fastBackoff(),
	})
	c.addr = l.Addr().String()
	raw, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := &writeFailConn{Conn: raw}
	if err := c.install(context.Background(), fc); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	input := g.SeizureInput(0, 30, 10)
	window := input.Samples[1024:1280]
	if _, err := c.Search(ctx, window); err != nil {
		t.Fatalf("search over the wrapped conn: %v", err)
	}

	fc.fail.Store(true)
	_, err = c.Search(ctx, window)
	if err == nil || !strings.Contains(err.Error(), "write") {
		t.Fatalf("search with failing writes = %v, want a write error", err)
	}
	// The failed write retired the connection; this call must redial.
	if _, err := c.Search(ctx, window); err != nil {
		t.Fatalf("search after write-error teardown: %v", err)
	}
	if c.Metrics.Reconnects.Load() == 0 {
		t.Fatal("client did not count the reconnect")
	}
	if c.Metrics.ConnLost.Load() == 0 {
		t.Fatal("client did not count the lost connection")
	}
}

// TestClientKeepalive: an idle dialled client probes the connection,
// and a probe that finds it dead triggers a reconnect — before any
// caller needs the link.
func TestClientKeepalive(t *testing.T) {
	store, _ := buildStore(t)
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

	client, err := DialOpts(l.Addr().String(), ClientOptions{
		DialTimeout:    time.Second,
		Keepalive:      25 * time.Millisecond,
		RedialAttempts: 2,
		Redial:         fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	deadline := time.Now().Add(5 * time.Second)
	for client.Metrics.Keepalives.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle client never sent a keepalive probe")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Sever the transport; the prober must notice and repair it.
	client.mu.Lock()
	conn := client.conn
	client.mu.Unlock()
	conn.Close()
	for client.Metrics.Reconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("keepalive prober never repaired the dead connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for !client.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("client not connected after keepalive repair")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEmptyRefreshKeepsDegradedFallback: a retrieval that comes back
// EMPTY (the uploaded window correlated with nothing above δ) must
// never replace the non-empty last-good correlation set that degraded
// mode re-arms — otherwise one no-match window landing right before a
// partition sends the device dark for the whole outage. The kernel
// engine made searches fast enough to lose exactly that race, which
// is how this gap was found.
func TestEmptyRefreshKeepsDegradedFallback(t *testing.T) {
	store, g := buildResilienceStore(t)
	srv, err := cloud.NewServer(store, resilienceCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	part := netsim.NewPartition()
	go srv.Serve(part.Listen(l))
	defer srv.Close()

	client, err := DialOpts(l.Addr().String(), ClientOptions{
		DialTimeout: time.Second, RedialAttempts: 1, Redial: fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	dev, err := NewDevice(client, Config{
		CloudTimeout: time.Second, Refresh: fastBackoff(), RefreshRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The injected adoption below breaks the device's one-in-flight
	// invariant: a real refresh can be left blocked on the full
	// channel, which Close waits out. Drain the channel until Close
	// returns so teardown can't deadlock.
	defer func() {
		closed := make(chan struct{})
		go func() {
			dev.Close()
			close(closed)
		}()
		for {
			select {
			case <-dev.refreshing:
			case <-closed:
				return
			}
		}
	}()

	input := g.SeizureInput(0, 30, 60)
	ctx := context.Background()
	k := 0
	for ; k < 10; k++ {
		if _, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(dev.lastGood.matches) == 0 {
		t.Fatal("fixture never adopted a non-empty correlation set")
	}
	part.Split()
	// Deterministically deliver the race: an empty retrieval is
	// adopted at the next slot, exactly as if a no-match search
	// completed a moment before the link died. A real refresh may
	// already be parked in the channel — discard it and park ours.
	inject := adoptable{store: mdb.NewStore(), seq: k - 1}
	for parked := true; parked; {
		select {
		case dev.refreshing <- inject:
			parked = false
		case <-dev.refreshing:
		}
	}
	observed := 0
	windows := len(input.Samples) / 256
	for ; k < windows && observed == 0; k++ {
		st, err := dev.Push(ctx, input.Samples[k*256:(k+1)*256])
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded && st.Tracking && st.Remaining > 0 {
			observed++
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(dev.lastGood.matches) == 0 {
		t.Fatal("empty retrieval clobbered the degraded fallback set")
	}
	if observed == 0 {
		t.Fatal("no degraded tracking after an empty retrieval preceded the outage")
	}
}
