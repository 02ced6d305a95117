package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// feedInts is an Emit generator producing 0..n-1.
func feedInts(n int) func(ctx context.Context, emit func(int) bool) error {
	return func(ctx context.Context, emit func(int) bool) error {
		for i := 0; i < n; i++ {
			if !emit(i) {
				return ctx.Err()
			}
		}
		return nil
	}
}

func TestLinearPipelineOrdered(t *testing.T) {
	p := New(context.Background())
	src := Emit(p, "src", 2, feedInts(100))
	sq := Map(p, "square", src, Opts{Buffer: 2}, func(_ context.Context, v int) (int, error) {
		return v * v, nil
	})
	var got []int
	Do(p, "sink", sq, func(_ context.Context, v int) error {
		got = append(got, v)
		return nil
	})
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d elements, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestConcurrentMapPreservesOrder(t *testing.T) {
	p := New(context.Background())
	src := Emit(p, "src", 0, feedInts(200))
	// Workers race, but the reorder buffer must restore input order.
	m := Map(p, "work", src, Opts{Workers: 8, Buffer: 4}, func(_ context.Context, v int) (int, error) {
		if v%7 == 0 {
			time.Sleep(time.Millisecond) // jitter to force reordering pressure
		}
		return v * 3, nil
	})
	var got []int
	Do(p, "sink", m, func(_ context.Context, v int) error {
		got = append(got, v)
		return nil
	})
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(got) != 200 {
		t.Fatalf("got %d elements, want 200", len(got))
	}
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("got[%d] = %d, want %d (order not preserved)", i, v, i*3)
		}
	}
}

func TestBackpressureBound(t *testing.T) {
	// With bounded buffers and a stalled sink, the source must stop
	// after filling the buffers — it cannot run ahead unboundedly.
	p := New(context.Background())
	release := make(chan struct{})
	var emitted atomic.Int64
	src := Emit(p, "src", 2, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; i < 1000; i++ {
			if !emit(i) {
				return ctx.Err()
			}
			emitted.Add(1)
		}
		return nil
	})
	Do(p, "sink", src, func(ctx context.Context, v int) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	// Give the source every chance to overrun.
	time.Sleep(50 * time.Millisecond)
	// Capacity visible to the source while the sink holds one element:
	// out buffer (2) + the sink's in-hand element + one send in flight.
	if n := emitted.Load(); n > 4 {
		t.Fatalf("source emitted %d elements against a stalled sink; backpressure bound is 4", n)
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if n := emitted.Load(); n != 1000 {
		t.Fatalf("emitted %d after release, want 1000", n)
	}
}

func TestStageErrorCancelsPipe(t *testing.T) {
	boom := errors.New("boom")
	p := New(context.Background())
	src := Emit(p, "src", 0, feedInts(1000))
	m := Map(p, "explode", src, Opts{Workers: 4}, func(_ context.Context, v int) (int, error) {
		if v == 10 {
			return 0, boom
		}
		return v, nil
	})
	Do(p, "sink", m, func(_ context.Context, v int) error { return nil })
	err := p.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
}

func TestContextCancellationStopsPipe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(ctx)
	src := Emit(p, "src", 0, func(ctx context.Context, emit func(int) bool) error {
		i := 0
		for emit(i) {
			i++
		}
		return ctx.Err()
	})
	Do(p, "sink", src, func(_ context.Context, v int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	time.Sleep(5 * time.Millisecond)
	cancel()
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Wait returned nil after external cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipe did not stop after context cancellation")
	}
}

func TestScatterZipRoundTrip(t *testing.T) {
	const lanes = 4
	p := New(context.Background())
	src := Emit(p, "src", 0, feedInts(50))
	outs := Scatter(p, "scatter", src, lanes, 1, func(v, lane int) int {
		return v*10 + lane
	})
	// Per-lane processing stages between the fan-out and the barrier.
	proc := make([]<-chan int, lanes)
	for i, ch := range outs {
		proc[i] = Map(p, "lane", ch, Opts{Buffer: 1}, func(_ context.Context, v int) (int, error) {
			return v + 1, nil
		})
	}
	rows := Zip(p, "zip", proc, 1)
	var n int
	Do(p, "sink", rows, func(_ context.Context, row []int) error {
		if len(row) != lanes {
			t.Errorf("row has %d entries, want %d", len(row), lanes)
		}
		for lane, v := range row {
			want := n*10 + lane + 1
			if v != want {
				t.Errorf("round %d lane %d = %d, want %d", n, lane, v, want)
			}
		}
		n++
		return nil
	})
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if n != 50 {
		t.Fatalf("saw %d rounds, want 50", n)
	}
}

func TestLanesDeterministicOrder(t *testing.T) {
	var l Lanes[string]
	l.Push(Routine, "r1")
	l.Push(Anomaly, "a1")
	l.Push(Routine, "r2")
	l.Push(Anomaly, "a2")
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	want := []string{"a1", "a2", "r1", "r2"}
	for _, w := range want {
		v, ok := l.Pop()
		if !ok || v != w {
			t.Fatalf("Pop = %q/%v, want %q", v, ok, w)
		}
	}
	if _, ok := l.Pop(); ok {
		t.Fatal("Pop on empty lanes reported ok")
	}
}

func TestStatsCounters(t *testing.T) {
	p := New(context.Background())
	src := Emit(p, "src", 0, feedInts(25))
	m := Map(p, "work", src, Opts{}, func(_ context.Context, v int) (int, error) {
		time.Sleep(50 * time.Microsecond)
		return v, nil
	})
	Do(p, "sink", m, func(_ context.Context, v int) error { return nil })
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("Stats has %d stages, want 3", len(stats))
	}
	byName := make(map[string]StageStats)
	for _, s := range stats {
		byName[s.Name] = s
	}
	if s := byName["src"]; s.Out != 25 {
		t.Fatalf("src.Out = %d, want 25", s.Out)
	}
	if s := byName["work"]; s.In != 25 || s.Out != 25 {
		t.Fatalf("work in/out = %d/%d, want 25/25", s.In, s.Out)
	}
	if s := byName["work"]; s.Busy <= 0 {
		t.Fatalf("work.Busy = %v, want > 0", s.Busy)
	}
	if s := byName["sink"]; s.In != 25 || s.Errors != 0 {
		t.Fatalf("sink in/errors = %d/%d, want 25/0", s.In, s.Errors)
	}
}
