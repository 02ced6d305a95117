package core

import (
	"context"
	"fmt"
	"time"
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

// Stream is one live monitoring run: windows go in via Push, a
// StepReport per window comes out of Reports, and Close returns the
// final Report. The caller should consume Reports (or cancel the
// context): Push blocks while the worker is busy and the reports
// buffer is full. Close always gets through — reports nobody is
// reading at that point may be dropped. Process shows the pattern.
//
// A stream is the one-channel case of the session's driver: one worker
// goroutine filters, quantises and hands each window to the channel's
// track.Controller, on the session's edge actor and with the session's
// predictor, so consecutive streams accumulate exactly as consecutive
// Process calls do.
type Stream struct {
	r        *run[Window, StepReport]
	d        *driver
	wlen     int       // Push validates without touching session state
	one      [1]Window // the worker's slot row
	report   *Report
	decision bool
}

// Start begins a streaming run over the session. Only one stream may
// be active at a time; the previous one must be closed (or its
// context cancelled) first.
func (s *Session) Start(ctx context.Context) (*Stream, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	st := &Stream{
		d:      newDriver(s, []*channel{s.newChannel("", s.edge, s.predictor)}),
		wlen:   s.cfg.windowLen(),
		report: &Report{},
	}
	st.r = startRun(s, ctx, st.step, st.finalize)
	return st, nil
}

// Push feeds one window into the stream. It blocks while the worker
// is busy (or the reports buffer is full) and fails once the stream
// is closed, errored, or its context cancelled.
func (st *Stream) Push(w Window) error {
	if len(w) != st.wlen {
		return fmt.Errorf("core: window must be %d samples, got %d", st.wlen, len(w))
	}
	return st.r.push(w)
}

// Reports returns the per-window result channel. It is closed when
// the stream ends.
func (st *Stream) Reports() <-chan StepReport { return st.r.reports }

// Stats snapshots the wall time the stream spent filtering,
// quantising and tracking. Safe to call while the stream runs.
func (st *Stream) Stats() []StageStats { return st.d.stats() }

// Close signals end-of-input, waits for the accepted windows to
// drain, and returns the finalised report. It is idempotent; after a
// context cancellation it returns the context error.
func (st *Stream) Close() (*Report, error) {
	if err := st.r.close(); err != nil {
		return nil, err
	}
	return st.report, nil
}

// step advances the stream by one window. The window that issues the
// first cloud call carries Δ_initial and no tracking iteration.
func (st *Stream) step(w Window) (StepReport, error) {
	st.one[0] = w
	if err := st.d.step(st.one[:]); err != nil {
		return StepReport{}, err
	}
	c, out := st.d.ch[0], st.d.out[0]
	rep := StepReport{IterStat: out.IterStat, Warmup: out.Warmup, Decision: st.decision}
	switch {
	case out.Warmup:
	case c.dec.First:
		st.report.InitialOverhead = c.pending.readyAt - c.edge.Now()
		rep.InitialOverhead = st.report.InitialOverhead
	default:
		st.report.Iters = append(st.report.Iters, out.IterStat)
		rep.Decision = out.Anomalous
		rep.DecisionChanged = rep.Decision != st.decision
		st.decision = rep.Decision
	}
	return rep, nil
}

// finalize seals the report.
func (st *Stream) finalize() {
	s, c := st.d.sess, st.d.ch[0]
	st.report.Windows = st.d.slots
	st.report.CloudCalls = c.calls
	st.report.Decision = c.pred.Anomalous()
	st.report.PATrace = c.pred.History()
	st.report.Timeline = s.clk.Events()
	st.report.FinalPA = c.pred.Current()
	st.report.Rise = c.pred.Rise()
}
