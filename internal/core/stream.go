package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"emap/internal/pipeline"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/track"
)

// Window is one acquisition slot of raw EEG samples at the session
// base rate (one second by default).
type Window []float64

// StepReport is the per-window outcome a Stream emits: the tracking
// state, the anomaly probability estimate and the predictor's decision
// after consuming that window. The embedded IterStat carries the
// tracking iteration itself (Window, At, PA, Remaining, …) exactly as
// it lands in Report.Iters.
type StepReport struct {
	IterStat
	// Warmup reports a window consumed to settle the acquisition
	// filter (no search, no tracking).
	Warmup bool
	// InitialOverhead is Δ_initial (Eq. 4), set only on the step
	// that issued the session's first cloud call.
	InitialOverhead time.Duration
	// Decision is the predictor's verdict after this window;
	// DecisionChanged marks the transitions (the alarm firing or
	// clearing).
	Decision        bool
	DecisionChanged bool
}

// ErrStreamClosed is returned by Push after Close.
var ErrStreamClosed = errors.New("core: stream closed")

// defaultCloseGrace bounds how long a closing stream keeps trying to
// deliver a StepReport to a slow consumer (Config.CloseGrace
// overrides).
const defaultCloseGrace = 100 * time.Millisecond

// Stage payloads: what flows between the pipeline stages of one
// stream. Each carries the window index assigned at intake, so every
// downstream stage agrees on numbering without shared state.
type (
	// rawWindow is an accepted Push, numbered.
	rawWindow struct {
		k   int
		raw Window
	}
	// filteredWindow left the acquisition bandpass.
	filteredWindow struct {
		k        int
		filtered []float64
	}
	// quantWindow is ready for tracking: the 16-bit counts the edge
	// uploads — what the cloud searches by, as sent — and the
	// dequantised view of them the tracker compares. warmup windows
	// skip quantisation entirely.
	quantWindow struct {
		k      int
		warmup bool
		upload search.Counts
		window []float64
	}
)

// Stream is one live monitoring run: windows go in via Push, a
// StepReport per window comes out of Reports, and Close returns the
// final Report. The caller should consume Reports (or cancel the
// context): Push blocks while the pipeline is busy and the reports
// buffer is full. Close always gets through — reports nobody is
// reading at that point may be dropped. Process shows the pattern.
//
// Internally the run is an internal/pipeline dataflow — the paper's
// Fig. 3 loop as five typed stages:
//
//	acquire → filter → quantize → track → deliver
//
// acquire numbers accepted windows; filter runs the stateful 100-tap
// bandpass; quantize models the 16-bit wire; track owns every
// simulated-clock interaction (acquisition slots, tracking cost,
// cloud calls) so the event trace stays bit-identical to the original
// single-goroutine loop; deliver feeds Reports with the close-grace
// contract. Stages are connected by bounded channels, so a slow
// consumer backpressures Push just as before.
type Stream struct {
	sess *Session
	ctx  context.Context
	wlen int // cached at Start: Push validates without touching session state

	in      chan Window
	reports chan StepReport
	done    chan struct{}

	closeOnce sync.Once
	closing   chan struct{} // closed by Close: end of input

	pipe *pipeline.Pipe

	// track-stage-private state (owned by the track stage goroutine;
	// finalize reads it only after the pipeline has fully stopped).
	tracker  *track.Tracker
	pending  *pendingSearch
	report   *Report
	k        int // windows fully processed
	decision bool

	// set before done closes.
	err error
}

// Start begins a streaming run over the session. Only one stream may
// be active at a time; the previous one must be closed (or its
// context cancelled) first. The stream inherits the session's
// predictor and simulated clock, so consecutive runs accumulate
// exactly as consecutive Process calls do.
func (s *Session) Start(ctx context.Context) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.active {
		s.mu.Unlock()
		return nil, errors.New("core: a stream is already active on this session")
	}
	s.active = true
	s.mu.Unlock()
	st := &Stream{
		sess:    s,
		ctx:     ctx,
		wlen:    s.cfg.windowLen(),
		in:      make(chan Window),
		reports: make(chan StepReport, 16),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
		report:  &Report{},
	}
	st.pipe = st.build()
	go st.run()
	return st, nil
}

// build assembles the stream's stage graph. The stages start
// immediately but block on their inputs until Push feeds the intake.
func (st *Stream) build() *pipeline.Pipe {
	s := st.sess
	p := pipeline.New(st.ctx)

	// acquire: accept pushed windows until Close or cancellation,
	// assigning each its window index.
	accepted := pipeline.Emit(p, "acquire", 1, func(ctx context.Context, emit func(rawWindow) bool) error {
		k := 0
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-st.closing:
				// nil — unless the context was cancelled as well and
				// the select happened to pick this case: a cancelled
				// stream ends with the context's error, not a report.
				return ctx.Err()
			case w := <-st.in:
				if !emit(rawWindow{k: k, raw: w}) {
					return ctx.Err()
				}
				k++
			}
		}
	})

	// filter: the acquisition bandpass. The dsp.Stream carries the
	// 100-tap delay line across windows, so this stage is stateful
	// and runs with concurrency 1 — order is the correctness.
	fir := s.fir.NewStream()
	filtered := pipeline.Map(p, "filter", accepted, pipeline.Opts{Buffer: 1},
		func(_ context.Context, w rawWindow) (filteredWindow, error) {
			return filteredWindow{k: w.k, filtered: fir.NextBlock(w.raw)}, nil
		})

	// quantize: model the 16-bit wire the edge uploads over — the
	// tracker must see the dequantised view of the counts the cloud
	// searches by. Warmup windows are never uploaded and skip it.
	warmup := s.cfg.WarmupWindows
	quantized := pipeline.Map(p, "quantize", filtered, pipeline.Opts{Buffer: 1},
		func(_ context.Context, w filteredWindow) (quantWindow, error) {
			if w.k < warmup {
				return quantWindow{k: w.k, warmup: true}, nil
			}
			counts, scale := proto.Quantize(w.filtered)
			return quantWindow{k: w.k, upload: search.Counts{Samples: counts, Scale: scale}, window: proto.Dequantize(counts, scale)}, nil
		})

	// track: everything that touches the simulated clock — the
	// acquisition slot, the filter cost, pending-set adoption, the
	// tracking iteration and cloud recalls — in exactly the order the
	// original single-goroutine loop performed them. Concurrency 1 by
	// construction; raising it would scramble the event trace.
	tracked := pipeline.Map(p, "track", quantized, pipeline.Opts{},
		func(_ context.Context, q quantWindow) (StepReport, error) {
			return st.track(q)
		})

	// deliver: feed Reports. While the stream is open, delivery
	// blocks (backpressure up to Push); once Close fires, each
	// undelivered report gets one grace period, and after the first
	// expiry the consumer is considered gone and the rest drop.
	abandoned := false
	pipeline.Do(p, "deliver", tracked, func(ctx context.Context, rep StepReport) error {
		if abandoned {
			return nil
		}
		select {
		case st.reports <- rep:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-st.closing:
			// The caller is shutting down. A live consumer may
			// still want this report (it can be the alarm
			// transition), so give delivery a short grace — but
			// never hang Close on an abandoned consumer.
			fire, stop := s.alarm.Start(s.cfg.CloseGrace)
			defer stop()
			select {
			case st.reports <- rep:
			case <-fire:
				abandoned = true
			case <-ctx.Done():
				return ctx.Err()
			}
			return nil
		}
	})
	return p
}

// run waits the pipeline out and seals the stream. The session is
// released before done closes, so a caller returning from Close can
// Start the next stream immediately.
func (st *Stream) run() {
	defer func() {
		close(st.reports)
		st.sess.mu.Lock()
		st.sess.active = false
		st.sess.mu.Unlock()
		close(st.done)
	}()
	if err := st.pipe.Wait(); err != nil {
		st.err = err
		return
	}
	st.finalize()
}

// Push feeds one window into the stream. It blocks while the pipeline
// is busy (or the reports buffer is full) and fails once the stream
// is closed, errored, or its context cancelled.
func (st *Stream) Push(w Window) error {
	if len(w) != st.wlen {
		return fmt.Errorf("core: window must be %d samples, got %d", st.wlen, len(w))
	}
	select {
	case <-st.closing:
		return ErrStreamClosed
	default:
	}
	select {
	case st.in <- w:
		return nil
	case <-st.closing:
		return ErrStreamClosed
	case <-st.done:
		if st.err != nil {
			return st.err
		}
		return ErrStreamClosed
	case <-st.ctx.Done():
		return st.ctx.Err()
	}
}

// Reports returns the per-window result channel. It is closed when
// the stream ends.
func (st *Stream) Reports() <-chan StepReport { return st.reports }

// Stats snapshots the per-stage pipeline counters (elements in/out,
// stage-function busy time) — the stream's contribution to the
// observability surface. Safe to call while the stream runs.
func (st *Stream) Stats() []pipeline.StageStats { return st.pipe.Stats() }

// Close signals end-of-input, waits for the in-flight windows to
// drain through the pipeline, and returns the finalised report. It is
// idempotent; after a context cancellation it returns the context
// error.
func (st *Stream) Close() (*Report, error) {
	st.closeOnce.Do(func() { close(st.closing) })
	<-st.done
	if st.err != nil {
		return nil, st.err
	}
	return st.report, nil
}

// finalize seals the report exactly as the batch pipeline did.
func (st *Stream) finalize() {
	s := st.sess
	st.report.Windows = st.k
	st.report.Decision = s.predictor.Anomalous()
	st.report.PATrace = s.predictor.History()
	st.report.Timeline = s.clk.Events()
	st.report.FinalPA = s.predictor.Current()
	st.report.Rise = s.predictor.Rise()
}

// track advances the session by one prepared window: acquisition and
// filter slots on the simulated clock, pending-set adoption, tracking
// and (when needed) a cloud call — the body of paper Fig. 3 for one
// time-step.
func (st *Stream) track(q quantWindow) (StepReport, error) {
	s := st.sess
	k := q.k
	st.k = k + 1
	windowDur := time.Duration(s.cfg.WindowSeconds * float64(time.Second))

	// Acquisition: the sampling slot occupies one window of real
	// time, then the edge filters and quantises.
	s.edge.Do(windowDur, "sample", fmt.Sprintf("window %d", k))
	s.edge.Do(s.cfg.Costs.EdgeFilter, "filter", "100-tap bandpass")
	rep := StepReport{IterStat: IterStat{Window: k}, Decision: st.decision}
	if q.warmup {
		rep.Warmup = true
		rep.At = s.edge.Now()
		return rep, nil // let the filter transient settle
	}

	// Deliver a completed background search, if its set has arrived
	// by now.
	st.adoptPending(k)

	// First call: nothing tracked and nothing in flight.
	if st.tracker == nil && st.pending == nil {
		if err := st.launchSearch(k, q.upload); err != nil {
			return rep, err
		}
		st.report.InitialOverhead = st.pending.readyAt - s.edge.Now()
		rep.CloudCallIssued = true
		rep.InitialOverhead = st.report.InitialOverhead
		rep.At = s.edge.Now()
		return rep, nil
	}

	stat := IterStat{Window: k, At: s.edge.Now()}
	if st.tracker != nil {
		tr := st.tracker.Step(q.window)
		cost := s.trackCost(tr)
		s.edge.Do(cost, "track", fmt.Sprintf("%d signals", tr.Remaining))
		// An empty set (refresh in flight) is absence of data, not
		// a probability estimate.
		if tr.Remaining > 0 {
			s.predictor.Observe(tr.PA)
		}
		stat.PA = tr.PA
		stat.Remaining = tr.Remaining
		stat.Eliminated = tr.Eliminated
		stat.Expired = tr.Expired
		stat.Tracked = true
		stat.TrackCost = cost

		needRecall := tr.NeedsCloud ||
			(st.tracker.HorizonLeft() >= 0 && st.tracker.HorizonLeft() <= s.cfg.RecallMargin)
		if needRecall && st.pending == nil {
			if err := st.launchSearch(k, q.upload); err != nil {
				return rep, err
			}
			stat.CloudCallIssued = true
		}
	}
	st.report.Iters = append(st.report.Iters, stat)

	decision := s.predictor.Anomalous()
	rep.IterStat = stat
	rep.Decision = decision
	rep.DecisionChanged = decision != st.decision
	st.decision = decision
	return rep, nil
}

// adoptPending installs an arrived correlation set as the live
// tracker.
func (st *Stream) adoptPending(window int) {
	s := st.sess
	if st.pending == nil || s.edge.Now() < st.pending.readyAt {
		return
	}
	p := st.pending
	st.pending = nil
	tr := track.NewTracker(s.store, p.result.Matches, adaptThreshold(s.cfg.Track, len(p.result.Matches)))
	// The set was searched against window p.seq; tracking resumes at
	// the current window, so continuations are read further in.
	tr.Skip(window - p.seq - 1)
	st.tracker = tr
	st.report.CloudCalls++
}

// launchSearch runs the cloud search against the given window's counts,
// as the edge would upload them, and schedules its arrival on the simulated clock. The search itself
// executes synchronously here (the result is deterministic), but its
// simulated cost occupies the cloud actor, overlapping edge tracking
// exactly as in Fig. 9.
func (st *Stream) launchSearch(window int, input search.Counts) error {
	s := st.sess
	res, err := s.searcher.Algorithm1Counts(input)
	if err != nil {
		return fmt.Errorf("core: cloud search: %w", err)
	}
	upload := s.cfg.Link.UploadSamplesTime(len(input.Samples))
	searchCost := time.Duration(res.Evaluated) * s.cfg.Costs.CloudEval
	download := s.cfg.Link.DownloadSignalsTime(len(res.Matches), int(s.cfg.HorizonSeconds*s.cfg.BaseRate))

	s.cloud.WaitUntil(s.edge.Now())
	s.cloud.Do(upload, "upload", fmt.Sprintf("window %d (%d samples)", window, len(input.Samples)))
	s.cloud.Do(searchCost, "search", fmt.Sprintf("%d evaluations, %d matches", res.Evaluated, len(res.Matches)))
	ready := s.cloud.Do(download, "download", fmt.Sprintf("%d signals", len(res.Matches)))

	st.pending = &pendingSearch{seq: window, readyAt: ready, result: res}
	return nil
}
