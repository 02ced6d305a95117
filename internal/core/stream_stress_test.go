package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"emap/internal/clock"
)

// TestStreamCloseGraceDeterministic: the close-grace expiry is a
// program event, not a wall-clock race — with a manual alarm
// injected, Close of an abandoned stream returns exactly when the
// test fires the grace, regardless of machine speed.
func TestStreamCloseGraceDeterministic(t *testing.T) {
	store, _ := buildStore(t)
	sess, err := NewSession(store, Config{WarmupWindows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	alarm := clock.NewManualAlarm()
	sess.alarm = alarm
	stream, err := sess.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 17 windows overfill the 16-slot reports buffer with nobody
	// reading, so at least one report is undelivered at Close time.
	win := make(Window, sess.Config().windowLen())
	for i := 0; i < 17; i++ {
		if err := stream.Push(win); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan *Report, 1)
	go func() {
		rep, err := stream.Close()
		if err != nil {
			t.Errorf("Close: %v", err)
		}
		closed <- rep
	}()
	// Fire blocks until the delivery stage is waiting on the grace —
	// the synchronisation point that makes this deterministic.
	alarm.Fire()
	select {
	case rep := <-closed:
		if rep.Windows != 17 {
			t.Fatalf("Windows = %d, want 17 (accepted windows must drain)", rep.Windows)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the grace fired")
	}
}

// TestStreamConcurrentPushCloseStart: Push, Close and the next Start
// racing from different goroutines must stay free of data races and
// deadlocks (run under -race in CI).
func TestStreamConcurrentPushCloseStart(t *testing.T) {
	store, _ := buildStore(t)
	sess, err := NewSession(store, Config{WarmupWindows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wl := sess.Config().windowLen()
	for round := 0; round < 25; round++ {
		stream, err := sess.Start(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		// Consumer.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range stream.Reports() {
			}
		}()
		// Competing pushers.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				win := make(Window, wl)
				for i := 0; i < 20; i++ {
					if stream.Push(win) != nil {
						return
					}
				}
			}()
		}
		// Close races the pushers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := stream.Close(); err != nil {
				t.Errorf("round %d close: %v", round, err)
			}
		}()
		wg.Wait()
		// The stage counters must be readable after shutdown.
		if stats := stream.Stats(); len(stats) != 3 || stats[2].Name != "track" || stats[2].Busy < 0 {
			t.Fatalf("round %d: stats %+v", round, stats)
		}
	}
}

// TestStreamRunsOneGoroutine: a running stream, single-channel or a
// montage, adds exactly one goroutine — its worker — and Close takes
// it away again.
func TestStreamRunsOneGoroutine(t *testing.T) {
	store, _ := buildStore(t)
	// settled reads the goroutine count once it has held still, so
	// goroutines of earlier tests that are still exiting do not count.
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(5 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	for _, channels := range []int{1, 4} {
		sess, err := NewSession(store, Config{Channels: channels})
		if err != nil {
			t.Fatal(err)
		}
		before := settled()
		var closeRun func() error
		if channels == 1 {
			st, err := sess.Start(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			closeRun = func() error { _, err := st.Close(); return err }
		} else {
			mst, err := sess.StartMulti(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			closeRun = func() error { _, err := mst.Close(); return err }
		}
		if got := settled() - before; got != 1 {
			t.Errorf("%d channels: a running stream adds %d goroutines, want 1", channels, got)
		}
		if err := closeRun(); err != nil {
			t.Fatal(err)
		}
		if got := settled() - before; got != 0 {
			t.Errorf("%d channels: %d goroutines left after Close", channels, got)
		}
	}
}
