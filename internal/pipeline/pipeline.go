// Package pipeline is a small typed stage framework for streaming
// dataflows: stages over channels with explicit concurrency, bounded
// buffers (backpressure), fan-out/fan-in, per-element priority lanes,
// context cancellation and per-stage counters.
//
// It follows the MapReduce-flavoured model of single-process pipeline
// libraries (stages consume a channel of elements and produce another)
// and the stage-DAG shape of reactive stream runtimes: each stage runs
// in its own goroutine(s) with a clear lifecycle, closes its output
// when its input is exhausted, and communicates only over channels, so
// a slow consumer naturally backpressures every producer upstream of
// it.
//
// A Pipe ties the stages of one dataflow together: it owns the derived
// context every stage selects on, records the first stage error (which
// cancels the rest), and gathers per-stage counters for the
// observability layer. Stages are free functions rather than methods
// because Go methods cannot introduce type parameters:
//
//	p := pipeline.New(ctx)
//	src := pipeline.Emit(p, "src", 4, feed)
//	sq := pipeline.Map(p, "square", src, pipeline.Opts{Buffer: 4},
//	    func(ctx context.Context, v int) (int, error) { return v * v, nil })
//	pipeline.Do(p, "sink", sq, consume)
//	err := p.Wait()
//
// The core monitoring loop (internal/core) is the first consumer: the
// paper's Fig. 3 step decomposes into acquisition → filter → quantize →
// track stages, and the multi-channel sessions fan windows out to
// per-channel lanes and back in through a Zip barrier. See DESIGN.md
// §15.
package pipeline

import (
	"context"
	"sync"
	"time"
)

// Opts adjusts one stage.
type Opts struct {
	// Workers is the stage's concurrency (default 1). Output order is
	// the input order regardless of Workers: results of a concurrent
	// stage are re-sequenced before emission.
	Workers int
	// Buffer is the capacity of the stage's output channel (default
	// 0: rendezvous). Bounded by construction — a full buffer blocks
	// the stage, which blocks its upstream, back to the source.
	Buffer int
}

func (o Opts) withDefaults() Opts {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Buffer < 0 {
		o.Buffer = 0
	}
	return o
}

// Pipe owns one dataflow: the context its stages select on, the first
// error (which cancels every other stage), and the per-stage counters.
type Pipe struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	err    error
	stages []*Metrics
}

// New returns an empty pipe whose stages are bounded by ctx.
func New(ctx context.Context) *Pipe {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	return &Pipe{ctx: ctx, cancel: cancel}
}

// Context returns the pipe's derived context; it is cancelled by the
// parent context, by Stop, or by the first stage error.
func (p *Pipe) Context() context.Context { return p.ctx }

// Stop cancels the pipe: stages observe the cancellation, drain and
// exit. Wait then reports the cancellation error.
func (p *Pipe) Stop() { p.cancel() }

// fail records the first error and cancels every stage.
func (p *Pipe) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

// Err returns the first stage error, if any.
func (p *Pipe) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Wait blocks until every stage has exited and returns the first
// error. A clean end-of-input drain returns nil.
func (p *Pipe) Wait() error {
	p.wg.Wait()
	p.cancel()
	return p.Err()
}

// Stats snapshots the per-stage counters in stage-creation order.
func (p *Pipe) Stats() []StageStats {
	p.mu.Lock()
	stages := make([]*Metrics, len(p.stages))
	copy(stages, p.stages)
	p.mu.Unlock()
	out := make([]StageStats, len(stages))
	for i, m := range stages {
		out[i] = m.Snapshot()
	}
	return out
}

// stage registers a named goroutine with the pipe and returns its
// metrics handle. The body's error (stage failure or observed
// cancellation) is recorded as the pipe error and cancels the rest.
func (p *Pipe) stage(name string, body func(m *Metrics) error) *Metrics {
	m := newMetrics(name)
	p.mu.Lock()
	p.stages = append(p.stages, m)
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := body(m); err != nil {
			m.errs.Add(1)
			p.fail(err)
		}
	}()
	return m
}

// send delivers v on out unless the pipe is cancelled first.
func send[T any](ctx context.Context, out chan<- T, v T) bool {
	select {
	case out <- v:
		return true
	case <-ctx.Done():
		return false
	}
}

// Emit is a source stage: gen produces elements by calling emit, which
// delivers with backpressure and returns false once the pipe is
// cancelled (gen should then return promptly). gen returning nil is a
// clean end of input; an error stops the pipe. The output channel is
// closed when gen returns.
func Emit[T any](p *Pipe, name string, buffer int, gen func(ctx context.Context, emit func(T) bool) error) <-chan T {
	if buffer < 0 {
		buffer = 0
	}
	out := make(chan T, buffer)
	p.stage(name, func(m *Metrics) error {
		defer close(out)
		emit := func(v T) bool {
			if !send(p.ctx, out, v) {
				return false
			}
			m.out.Add(1)
			return true
		}
		return gen(p.ctx, emit)
	})
	return out
}

// Map runs fn over every element of in with opt.Workers-way
// concurrency, emitting results in input order on the returned channel
// (closed after the last result). An fn error stops the pipe.
func Map[In, Out any](p *Pipe, name string, in <-chan In, opt Opts, fn func(ctx context.Context, v In) (Out, error)) <-chan Out {
	opt = opt.withDefaults()
	out := make(chan Out, opt.Buffer)
	if opt.Workers == 1 {
		p.stage(name, func(m *Metrics) error {
			defer close(out)
			for v := range in {
				m.in.Add(1)
				start := time.Now()
				r, err := fn(p.ctx, v)
				m.busy.Add(int64(time.Since(start)))
				if err != nil {
					return err
				}
				m.out.Add(1)
				if !send(p.ctx, out, r) {
					return p.ctx.Err()
				}
			}
			return nil
		})
		return out
	}
	p.stage(name, func(m *Metrics) error {
		defer close(out)
		err := mapConcurrent(p, m, in, out, opt, fn)
		if err != nil {
			// Cancel before the worker join inside mapConcurrent's
			// caller path: workers blocked on a full results channel
			// must observe the cancellation, or the join would hang.
			p.fail(err)
		}
		return err
	})
	return out
}

// mapConcurrent is the Workers>1 body of Map: a ticketed worker pool
// plus a reorder buffer, so concurrency changes wall clock, never the
// output order.
func mapConcurrent[In, Out any](p *Pipe, m *Metrics, in <-chan In, out chan<- Out, opt Opts, fn func(ctx context.Context, v In) (Out, error)) error {
	type job struct {
		seq int
		v   In
	}
	type res struct {
		seq int
		r   Out
	}
	jobs := make(chan job)
	results := make(chan res, opt.Workers)
	errs := make(chan error, opt.Workers)
	var workers sync.WaitGroup
	for i := 0; i < opt.Workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range jobs {
				start := time.Now()
				r, err := fn(p.ctx, j.v)
				m.busy.Add(int64(time.Since(start)))
				if err != nil {
					errs <- err
					return
				}
				if !send(p.ctx, results, res{j.seq, r}) {
					return
				}
			}
		}()
	}
	defer workers.Wait()
	defer p.cancelOnErr()
	defer close(jobs)

	next := 0
	hold := make(map[int]Out)
	flush := func() bool {
		for {
			r, ok := hold[next]
			if !ok {
				return true
			}
			delete(hold, next)
			next++
			m.out.Add(1)
			if !send(p.ctx, out, r) {
				return false
			}
		}
	}
	seq, inflight := 0, 0
	input := in
	for input != nil || inflight > 0 {
		if input != nil && inflight < opt.Workers {
			select {
			case v, ok := <-input:
				if !ok {
					input = nil
					continue
				}
				m.in.Add(1)
				select {
				case jobs <- job{seq, v}:
					seq++
					inflight++
				case <-p.ctx.Done():
					return p.ctx.Err()
				}
			case r := <-results:
				inflight--
				hold[r.seq] = r.r
				if !flush() {
					return p.ctx.Err()
				}
			case err := <-errs:
				return err
			case <-p.ctx.Done():
				return p.ctx.Err()
			}
			continue
		}
		select {
		case r := <-results:
			inflight--
			hold[r.seq] = r.r
			if !flush() {
				return p.ctx.Err()
			}
		case err := <-errs:
			return err
		case <-p.ctx.Done():
			return p.ctx.Err()
		}
	}
	return nil
}

// cancelOnErr cancels the pipe if an error has been recorded; it backs
// the deferred worker joins so a failing stage never waits on workers
// that cannot observe the failure.
func (p *Pipe) cancelOnErr() {
	if p.Err() != nil {
		p.cancel()
	}
}

// Do is a sink stage: it consumes in until exhaustion. An fn error
// stops the pipe.
func Do[T any](p *Pipe, name string, in <-chan T, fn func(ctx context.Context, v T) error) {
	p.stage(name, func(m *Metrics) error {
		for v := range in {
			m.in.Add(1)
			start := time.Now()
			err := fn(p.ctx, v)
			m.busy.Add(int64(time.Since(start)))
			if err != nil {
				return err
			}
			m.out.Add(1)
		}
		return nil
	})
}

// Scatter fans one stream out to n lanes: for every input element,
// pick(v, i) is sent to lane i, in lane order. All lanes see elements
// in the same arrival order, so a Zip of the lanes (after per-lane
// stages) reassembles rounds exactly. A slow lane backpressures the
// scatter, which backpressures the source.
func Scatter[In, Out any](p *Pipe, name string, in <-chan In, n, buffer int, pick func(v In, lane int) Out) []<-chan Out {
	if buffer < 0 {
		buffer = 0
	}
	lanes := make([]chan Out, n)
	outs := make([]<-chan Out, n)
	for i := range lanes {
		lanes[i] = make(chan Out, buffer)
		outs[i] = lanes[i]
	}
	p.stage(name, func(m *Metrics) error {
		defer func() {
			for _, l := range lanes {
				close(l)
			}
		}()
		for v := range in {
			m.in.Add(1)
			for i, l := range lanes {
				if !send(p.ctx, l, pick(v, i)) {
					return p.ctx.Err()
				}
			}
			m.out.Add(1)
		}
		return nil
	})
	return outs
}

// Zip is the ordered fan-in barrier: it receives one element from each
// input (in input-slice order) and emits them as one slice, repeating
// until any input closes. Paired with Scatter it restores the
// round-per-element structure after per-lane processing.
func Zip[T any](p *Pipe, name string, ins []<-chan T, buffer int) <-chan []T {
	if buffer < 0 {
		buffer = 0
	}
	out := make(chan []T, buffer)
	p.stage(name, func(m *Metrics) error {
		defer close(out)
		for {
			row := make([]T, len(ins))
			for i, in := range ins {
				select {
				case v, ok := <-in:
					if !ok {
						return nil
					}
					row[i] = v
					m.in.Add(1)
				case <-p.ctx.Done():
					return p.ctx.Err()
				}
			}
			m.out.Add(1)
			if !send(p.ctx, out, row) {
				return p.ctx.Err()
			}
		}
	})
	return out
}
