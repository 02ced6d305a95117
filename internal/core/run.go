package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/clock"
	"emap/internal/dsp"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/track"
)

// ErrStreamClosed is returned by Push after Close.
var ErrStreamClosed = errors.New("core: stream closed")

// defaultCloseGrace bounds how long a closing stream keeps trying to
// deliver a report to a slow consumer (Config.CloseGrace overrides).
const defaultCloseGrace = 100 * time.Millisecond

// StageStats is one stage's share of a stream's work: the wall time
// its worker spent in it.
type StageStats struct {
	// Name is "filter", "quantize" or "track".
	Name string
	// Busy is the cumulative wall time spent in the stage.
	Busy time.Duration
}

// run is the goroutine boundary every stream shares. Push hands an
// input to the run's one worker, which steps the session with it and
// delivers the report; a slow consumer therefore backpressures Push.
// Once Close fires, each undelivered report gets one grace period, and
// after the first expiry the consumer is taken as gone and the rest
// drop — Close never hangs on an abandoned consumer.
type run[In, Out any] struct {
	sess    *Session
	ctx     context.Context
	in      chan In
	reports chan Out
	closing chan struct{} // closed by Close: end of input
	done    chan struct{} // closed once the worker has exited

	closeOnce sync.Once
	err       error // set before done closes
}

// acquire claims the session for one run.
func (s *Session) acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active {
		return errors.New("core: a stream is already active on this session")
	}
	s.active = true
	return nil
}

// startRun starts the worker: step turns each input into its report,
// finish seals the run's report after a clean Close.
func startRun[In, Out any](s *Session, ctx context.Context, step func(In) (Out, error), finish func()) *run[In, Out] {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run[In, Out]{
		sess:    s,
		ctx:     ctx,
		in:      make(chan In),
		reports: make(chan Out, 16),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.loop(step, finish)
	return r
}

// loop is the worker. The session is released before done closes, so
// a caller returning from Close can Start the next stream at once.
func (r *run[In, Out]) loop(step func(In) (Out, error), finish func()) {
	defer func() {
		close(r.reports)
		r.sess.mu.Lock()
		r.sess.active = false
		r.sess.mu.Unlock()
		close(r.done)
	}()
	abandoned := false
	for {
		select {
		case <-r.ctx.Done():
			r.err = r.ctx.Err()
			return
		case <-r.closing:
			// A cancelled stream ends with the context's error even
			// when the select picked this case.
			if r.err = r.ctx.Err(); r.err == nil {
				finish()
			}
			return
		case v := <-r.in:
			rep, err := step(v)
			if err != nil {
				r.err = err
				return
			}
			if !abandoned {
				if abandoned, r.err = r.deliver(rep); r.err != nil {
					return
				}
			}
		}
	}
}

// deliver hands one report to the consumer and reports whether the
// consumer let the close grace expire.
func (r *run[In, Out]) deliver(rep Out) (abandoned bool, err error) {
	select {
	case r.reports <- rep:
		return false, nil
	case <-r.ctx.Done():
		return false, r.ctx.Err()
	case <-r.closing:
	}
	// The caller is shutting down. A live consumer may still want this
	// report (it can be the alarm transition), so give it a short grace.
	fire, stop := r.sess.alarm.Start(r.sess.cfg.CloseGrace)
	defer stop()
	select {
	case r.reports <- rep:
		return false, nil
	case <-fire:
		return true, nil
	case <-r.ctx.Done():
		return false, r.ctx.Err()
	}
}

// push hands one input to the worker. It blocks while the worker is
// busy and fails once the run is closed, errored or cancelled.
func (r *run[In, Out]) push(v In) error {
	select {
	case <-r.closing:
		return ErrStreamClosed
	default:
	}
	select {
	case r.in <- v:
		return nil
	case <-r.closing:
		return ErrStreamClosed
	case <-r.done:
		if r.err != nil {
			return r.err
		}
		return ErrStreamClosed
	case <-r.ctx.Done():
		return r.ctx.Err()
	}
}

// close signals end of input and waits for the worker to drain.
func (r *run[In, Out]) close() error {
	r.closeOnce.Do(func() { close(r.closing) })
	<-r.done
	return r.err
}

// pendingSearch is a cloud call in flight on the simulated clock.
type pendingSearch struct {
	seq     int           // the controller's number for the searched window
	readyAt time.Duration // simulated arrival of the correlation set
	result  *search.Result
}

// channel is one monitored channel of a run.
type channel struct {
	tag     string // "" for a single stream, "chN" in a montage
	edge    *clock.Actor
	fir     *dsp.Stream
	pred    *track.Predictor
	ctrl    *track.Controller
	pending *pendingSearch
	calls   int // correlation sets adopted

	// this slot's window: the 16-bit counts the edge uploads and the
	// dequantised view of them the tracker compares.
	filtered []float64
	upload   search.Counts
	window   []float64
	dec      track.Decision
}

// newChannel builds a channel over the session's store and cost model.
func (s *Session) newChannel(tag string, edge *clock.Actor, pred *track.Predictor) *channel {
	return &channel{
		tag:  tag,
		edge: edge,
		fir:  s.fir.NewStream(),
		pred: pred,
		ctrl: track.NewController(pred, s.cfg.Track, s.cfg.RecallMargin),
	}
}

// driver steps a session's channels one slot at a time — the body of
// paper Fig. 3 for one time-step. Every channel's window is filtered
// and quantised; then, on the simulated clock and in channel order,
// each channel samples, adopts an arrived set and asks its controller
// what to do; last, the recalls the controllers asked for go to the
// shared cloud actor, anomaly first and channel order within each
// priority. It runs on its run's worker goroutine only.
type driver struct {
	sess  *Session
	ch    []*channel
	slots int
	out   []ChannelStat // this slot's per-channel outcome
	busy  [3]atomic.Int64

	anomalyRecalls int
}

func newDriver(s *Session, ch []*channel) *driver {
	return &driver{sess: s, ch: ch, out: make([]ChannelStat, len(ch))}
}

// step consumes one slot: raw[i] is channel i's window.
func (d *driver) step(raw []Window) error {
	s := d.sess
	k := d.slots
	d.slots++
	warmup := k < s.cfg.WarmupWindows
	t0 := time.Now()
	for i, c := range d.ch {
		c.filtered = c.fir.NextBlock(raw[i])
	}
	t1 := time.Now()
	if !warmup {
		for _, c := range d.ch {
			counts, scale := proto.Quantize(c.filtered)
			c.upload = search.Counts{Samples: counts, Scale: scale}
			c.window = proto.Dequantize(counts, scale)
		}
	}
	t2 := time.Now()
	err := d.track(k, warmup)
	d.busy[0].Add(int64(t1.Sub(t0)))
	d.busy[1].Add(int64(t2.Sub(t1)))
	d.busy[2].Add(int64(time.Since(t2)))
	return err
}

// track runs everything that touches the simulated clock for slot k.
func (d *driver) track(k int, warmup bool) error {
	s := d.sess
	windowDur := time.Duration(s.cfg.WindowSeconds * float64(time.Second))
	for i, c := range d.ch {
		c.edge.Do(windowDur, "sample", fmt.Sprintf("window %d", k))
		c.edge.Do(s.cfg.Costs.EdgeFilter, "filter", "100-tap bandpass")
		d.out[i] = ChannelStat{IterStat: IterStat{Window: k, At: c.edge.Now()}, Warmup: warmup}
	}
	if warmup {
		return nil // let the filter transient settle
	}
	recalls := false
	for i, c := range d.ch {
		if p := c.pending; p != nil && c.edge.Now() >= p.readyAt {
			c.pending = nil
			if c.ctrl.Adopt(track.Set{Store: s.store, Matches: p.result.Matches}, p.seq) {
				c.calls++
			}
		}
		c.dec = c.ctrl.Step(c.window, c.pending != nil)
		st := &d.out[i]
		if c.dec.Tracked {
			cost := s.trackCost(c.dec.StepResult)
			c.edge.Do(cost, "track", fmt.Sprintf("%d signals", c.dec.Remaining))
			st.PA, st.Remaining, st.Eliminated, st.Expired = c.dec.PA, c.dec.Remaining, c.dec.Eliminated, c.dec.Expired
			st.Tracked, st.TrackCost = true, cost
		}
		st.Anomalous = c.dec.Anomalous
		st.CloudCallIssued = c.dec.Upload
		recalls = recalls || c.dec.Upload
	}
	if !recalls {
		return nil
	}
	for _, pri := range [...]uint8{proto.PriAnomaly, proto.PriRoutine} {
		for _, c := range d.ch {
			if c.dec.Upload && c.dec.Priority == pri {
				if err := d.launch(c, k); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// launch runs one channel's cloud search against slot k's counts, as
// the edge would upload them, and schedules the set's arrival. The
// search runs synchronously (its result is deterministic), but its
// simulated cost occupies the cloud actor, overlapping edge tracking
// exactly as in Fig. 9. In a montage the wire priority is recorded in
// the event detail, so the trace shows anomaly recalls overtaking
// routine ones.
func (d *driver) launch(c *channel, k int) error {
	s := d.sess
	res, err := s.searcher.Algorithm1Counts(c.upload)
	if err != nil {
		if c.tag != "" {
			err = fmt.Errorf("%s: %w", c.tag, err)
		}
		return fmt.Errorf("core: cloud search: %w", err)
	}
	n := len(c.upload.Samples)
	upload := s.cfg.Link.UploadSamplesTime(n)
	searchCost := time.Duration(res.Evaluated) * s.cfg.Costs.CloudEval
	download := s.cfg.Link.DownloadSignalsTime(len(res.Matches), int(s.cfg.HorizonSeconds*s.cfg.BaseRate))

	up := fmt.Sprintf("window %d (%d samples)", k, n)
	found := fmt.Sprintf("%d evaluations, %d matches", res.Evaluated, len(res.Matches))
	got := fmt.Sprintf("%d signals", len(res.Matches))
	if c.tag != "" {
		lane := "routine"
		if c.dec.Priority == proto.PriAnomaly {
			lane = "anomaly"
		}
		up = fmt.Sprintf("%s %s pri=%s(%d)", c.tag, up, lane, c.dec.Priority)
		found, got = c.tag+": "+found, c.tag+": "+got
	}
	s.cloud.WaitUntil(c.edge.Now())
	s.cloud.Do(upload, "upload", up)
	s.cloud.Do(searchCost, "search", found)
	ready := s.cloud.Do(download, "download", got)
	c.pending = &pendingSearch{seq: c.dec.Seq, readyAt: ready, result: res}
	if c.dec.Priority == proto.PriAnomaly {
		d.anomalyRecalls++
	}
	return nil
}

// stats snapshots the per-stage busy time; safe while the run works.
func (d *driver) stats() []StageStats {
	return []StageStats{
		{Name: "filter", Busy: time.Duration(d.busy[0].Load())},
		{Name: "quantize", Busy: time.Duration(d.busy[1].Load())},
		{Name: "track", Busy: time.Duration(d.busy[2].Load())},
	}
}
