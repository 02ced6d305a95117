package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"emap/internal/clock"
	"emap/internal/pipeline"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/track"
)

// MultiWindow is one acquisition slot across every channel of a
// multi-channel session: element i is channel i's raw window.
type MultiWindow []Window

// ChannelStat is one channel's slice of a multi-channel step.
type ChannelStat struct {
	IterStat
	// Warmup mirrors StepReport.Warmup for this channel.
	Warmup bool
	// Anomalous is this channel's own predictor verdict after the
	// window — its vote into the agreement rule.
	Anomalous bool
}

// MultiStepReport is the per-window outcome of a multi-channel
// stream: every channel's tracking state plus the cross-channel
// agreement decision.
type MultiStepReport struct {
	// Window is the input slot index.
	Window int
	// Warmup reports a slot consumed settling the per-channel
	// filters.
	Warmup bool
	// Channels holds one entry per channel, in channel order.
	Channels []ChannelStat
	// Votes is the number of channels whose predictor currently
	// concurs on anomaly; Alarm is the K-of-N verdict (Votes ≥
	// Agreement). AlarmChanged marks the transitions.
	Votes        int
	Alarm        bool
	AlarmChanged bool
}

// ChannelReport summarises one channel at the end of a multi-channel
// run.
type ChannelReport struct {
	// CloudCalls counts correlation sets this channel adopted.
	CloudCalls int
	// FinalPA and Rise summarise the channel's P_A trajectory.
	FinalPA, Rise float64
	// Decision is the channel predictor's final verdict.
	Decision bool
}

// MultiReport is the outcome of a multi-channel run.
type MultiReport struct {
	// Windows is the number of slots consumed; Channels and
	// Agreement echo the session's N and K.
	Windows, Channels, Agreement int
	// Modality labels the signal kind ("eeg", "ecg").
	Modality string
	// CloudCalls counts adopted correlation sets across channels;
	// AnomalyRecalls counts the cloud dispatches that rode the
	// expedited lane because their channel was already suspicious.
	CloudCalls, AnomalyRecalls int
	// Alarm is the final K-of-N verdict; AlarmAt is the first window
	// on which the alarm fired (-1: never).
	Alarm   bool
	AlarmAt int
	// Votes is the per-window concurring-channel count.
	Votes []int
	// PerChannel summarises each channel.
	PerChannel []ChannelReport
	// Timeline is the simulated event trace across all actors.
	Timeline []clock.Event
}

// chanState is one channel's private tracking state, owned by the
// agreement stage.
type chanState struct {
	edge      *clock.Actor
	tracker   *track.Tracker
	pending   *pendingSearch
	predictor *track.Predictor
	calls     int
}

// searchReq is one queued cloud dispatch of the agreement stage; the
// priority lane decides its order on the shared cloud actor.
type searchReq struct {
	pri    pipeline.Priority
	ch     int
	window int
	input  search.Counts
}

// Multi-channel stage payloads.
type (
	multiRaw struct {
		k   int
		row MultiWindow
	}
	chanRaw struct {
		k, ch int
		raw   Window
	}
	chanQuant struct {
		k, ch  int
		warmup bool
		upload search.Counts
		window []float64
	}
)

// MultiStream is a live N-channel monitoring run: one MultiWindow per
// slot goes in via Push, a MultiStepReport per slot comes out of
// Reports, and Close returns the final MultiReport.
//
// The dataflow fans each accepted slot out to per-channel filter and
// quantize lanes (channels progress concurrently), re-joins them at
// an ordered barrier, and feeds a single agreement stage that owns
// every simulated-clock interaction: per-channel acquisition and
// tracking on dedicated edge actors, cloud recalls dispatched on the
// shared cloud actor through a two-priority lane (a suspicious
// channel's recall preempts routine uploads), and the K-of-N vote
// that gates the alarm.
type MultiStream struct {
	sess *Session
	ctx  context.Context
	n    int
	k0   int // agreement threshold K
	wlen int

	in      chan MultiWindow
	reports chan MultiStepReport
	done    chan struct{}

	closeOnce sync.Once
	closing   chan struct{}

	pipe *pipeline.Pipe

	// agreement-stage-private state.
	ch      []*chanState
	report  *MultiReport
	k       int
	alarmOn bool

	err error
}

// StartMulti begins an N-channel streaming run (N = Config.Channels)
// with K-of-N cross-channel agreement (K = Config.Agreement). It
// shares the session's single-stream exclusivity: one live run per
// session, streams or multi-streams alike. Channel trackers run
// against the same store and cloud cost model; each channel gets its
// own edge actor ("edge-ch0", …) while cloud calls share (and queue
// on) the session's cloud actor.
func (s *Session) StartMulti(ctx context.Context) (*MultiStream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := s.cfg.Channels
	if n < 1 {
		return nil, errors.New("core: multi-channel session needs Channels ≥ 1")
	}
	s.mu.Lock()
	if s.active {
		s.mu.Unlock()
		return nil, errors.New("core: a stream is already active on this session")
	}
	s.active = true
	s.mu.Unlock()
	mst := &MultiStream{
		sess:    s,
		ctx:     ctx,
		n:       n,
		k0:      s.cfg.Agreement,
		wlen:    s.cfg.windowLen(),
		in:      make(chan MultiWindow),
		reports: make(chan MultiStepReport, 16),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
		ch:      make([]*chanState, n),
		report: &MultiReport{
			Channels:  n,
			Agreement: s.cfg.Agreement,
			Modality:  s.cfg.Modality,
			AlarmAt:   -1,
		},
	}
	for i := range mst.ch {
		mst.ch[i] = &chanState{
			edge:      s.clk.Actor(fmt.Sprintf("edge-ch%d", i)),
			predictor: track.NewPredictor(s.cfg.Predict),
		}
	}
	mst.pipe = mst.build()
	go mst.run()
	return mst, nil
}

// build assembles the multi-channel stage graph.
func (mst *MultiStream) build() *pipeline.Pipe {
	s := mst.sess
	p := pipeline.New(mst.ctx)

	accepted := pipeline.Emit(p, "acquire", 1, func(ctx context.Context, emit func(multiRaw) bool) error {
		k := 0
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-mst.closing:
				// nil — unless the context was cancelled as well and
				// the select happened to pick this case: a cancelled
				// stream ends with the context's error, not a report.
				return ctx.Err()
			case row := <-mst.in:
				if !emit(multiRaw{k: k, row: row}) {
					return ctx.Err()
				}
				k++
			}
		}
	})

	// Fan out: channel i's window goes to lane i; every lane sees
	// the slots in the same order, so the Zip barrier downstream
	// reassembles them exactly.
	lanes := pipeline.Scatter(p, "scatter", accepted, mst.n, 1,
		func(v multiRaw, lane int) chanRaw {
			return chanRaw{k: v.k, ch: lane, raw: v.row[lane]}
		})

	// Per-channel filter + quantize lanes: stateful per channel,
	// concurrent across channels.
	warmup := s.cfg.WarmupWindows
	quantLanes := make([]<-chan chanQuant, mst.n)
	for i, lane := range lanes {
		fir := s.fir.NewStream()
		name := fmt.Sprintf("filter-ch%d", i)
		filtered := pipeline.Map(p, name, lane, pipeline.Opts{Buffer: 1},
			func(_ context.Context, w chanRaw) (chanRaw, error) {
				return chanRaw{k: w.k, ch: w.ch, raw: fir.NextBlock(w.raw)}, nil
			})
		qname := fmt.Sprintf("quantize-ch%d", i)
		quantLanes[i] = pipeline.Map(p, qname, filtered, pipeline.Opts{Buffer: 1},
			func(_ context.Context, w chanRaw) (chanQuant, error) {
				if w.k < warmup {
					return chanQuant{k: w.k, ch: w.ch, warmup: true}, nil
				}
				counts, scale := proto.Quantize(w.raw)
				return chanQuant{k: w.k, ch: w.ch, upload: search.Counts{Samples: counts, Scale: scale}, window: proto.Dequantize(counts, scale)}, nil
			})
	}

	rows := pipeline.Zip(p, "join", quantLanes, 1)

	agreed := pipeline.Map(p, "agree", rows, pipeline.Opts{},
		func(_ context.Context, row []chanQuant) (MultiStepReport, error) {
			return mst.agree(row)
		})

	abandoned := false
	pipeline.Do(p, "deliver", agreed, func(ctx context.Context, rep MultiStepReport) error {
		if abandoned {
			return nil
		}
		select {
		case mst.reports <- rep:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-mst.closing:
			fire, stop := s.alarm.Start(s.cfg.CloseGrace)
			defer stop()
			select {
			case mst.reports <- rep:
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

func (mst *MultiStream) run() {
	defer func() {
		close(mst.reports)
		mst.sess.mu.Lock()
		mst.sess.active = false
		mst.sess.mu.Unlock()
		close(mst.done)
	}()
	if err := mst.pipe.Wait(); err != nil {
		mst.err = err
		return
	}
	mst.finalize()
}

// Push feeds one slot (all channels) into the stream.
func (mst *MultiStream) Push(row MultiWindow) error {
	if len(row) != mst.n {
		return fmt.Errorf("core: multi-window must carry %d channels, got %d", mst.n, len(row))
	}
	for i, w := range row {
		if len(w) != mst.wlen {
			return fmt.Errorf("core: channel %d window must be %d samples, got %d", i, mst.wlen, len(w))
		}
	}
	select {
	case <-mst.closing:
		return ErrStreamClosed
	default:
	}
	select {
	case mst.in <- row:
		return nil
	case <-mst.closing:
		return ErrStreamClosed
	case <-mst.done:
		if mst.err != nil {
			return mst.err
		}
		return ErrStreamClosed
	case <-mst.ctx.Done():
		return mst.ctx.Err()
	}
}

// Reports returns the per-slot result channel, closed when the stream
// ends.
func (mst *MultiStream) Reports() <-chan MultiStepReport { return mst.reports }

// Stats snapshots the per-stage pipeline counters.
func (mst *MultiStream) Stats() []pipeline.StageStats { return mst.pipe.Stats() }

// Close signals end-of-input, drains the in-flight slots, and returns
// the finalised report. Idempotent; after a context cancellation it
// returns the context error.
func (mst *MultiStream) Close() (*MultiReport, error) {
	mst.closeOnce.Do(func() { close(mst.closing) })
	<-mst.done
	if mst.err != nil {
		return nil, mst.err
	}
	return mst.report, nil
}

// agree advances every channel by one slot and applies the K-of-N
// rule — the multi-channel body of paper Fig. 3 plus the agreement
// gate. All simulated-clock interaction happens here, in channel
// order, so the event trace is deterministic.
func (mst *MultiStream) agree(row []chanQuant) (MultiStepReport, error) {
	s := mst.sess
	k := row[0].k
	mst.k = k + 1
	windowDur := time.Duration(s.cfg.WindowSeconds * float64(time.Second))

	rep := MultiStepReport{Window: k, Channels: make([]ChannelStat, mst.n), Alarm: mst.alarmOn}
	for i, c := range mst.ch {
		c.edge.Do(windowDur, "sample", fmt.Sprintf("window %d", k))
		c.edge.Do(s.cfg.Costs.EdgeFilter, "filter", "100-tap bandpass")
		rep.Channels[i].Window = k
		rep.Channels[i].At = c.edge.Now()
	}
	if row[0].warmup {
		rep.Warmup = true
		for i := range rep.Channels {
			rep.Channels[i].Warmup = true
		}
		return rep, nil
	}

	// Track every channel, queueing cloud dispatches on the priority
	// lanes: a channel whose own predictor is already suspicious gets
	// the expedited lane, so its refreshed correlation set arrives
	// ahead of routine uploads queued in the same slot.
	var queue pipeline.Lanes[searchReq]
	for i, c := range mst.ch {
		q := row[i]
		stat := &rep.Channels[i]
		mst.adoptPendingCh(c, k)

		if c.tracker == nil && c.pending == nil {
			queue.Push(pipeline.Routine, searchReq{pri: pipeline.Routine, ch: i, window: k, input: q.upload})
			stat.CloudCallIssued = true
			stat.Anomalous = c.predictor.Anomalous()
			continue
		}
		if c.tracker != nil {
			tr := c.tracker.Step(q.window)
			cost := s.trackCost(tr)
			c.edge.Do(cost, "track", fmt.Sprintf("%d signals", tr.Remaining))
			if tr.Remaining > 0 {
				c.predictor.Observe(tr.PA)
			}
			stat.PA = tr.PA
			stat.Remaining = tr.Remaining
			stat.Eliminated = tr.Eliminated
			stat.Expired = tr.Expired
			stat.Tracked = true
			stat.TrackCost = cost

			needRecall := tr.NeedsCloud ||
				(c.tracker.HorizonLeft() >= 0 && c.tracker.HorizonLeft() <= s.cfg.RecallMargin)
			if needRecall && c.pending == nil {
				pri := pipeline.Routine
				if c.predictor.Anomalous() {
					pri = pipeline.Anomaly
				}
				queue.Push(pri, searchReq{pri: pri, ch: i, window: k, input: q.upload})
				stat.CloudCallIssued = true
			}
		}
		stat.Anomalous = c.predictor.Anomalous()
	}

	// Dispatch the queued cloud calls on the shared cloud actor:
	// anomaly lane first, channel order within a lane.
	for {
		req, ok := queue.Pop()
		if !ok {
			break
		}
		if err := mst.launchSearchCh(req); err != nil {
			return rep, err
		}
		if req.pri == pipeline.Anomaly {
			mst.report.AnomalyRecalls++
		}
	}

	votes := 0
	for _, cs := range rep.Channels {
		if cs.Anomalous {
			votes++
		}
	}
	alarm := votes >= mst.k0
	rep.Votes = votes
	rep.Alarm = alarm
	rep.AlarmChanged = alarm != mst.alarmOn
	if alarm && mst.report.AlarmAt < 0 {
		mst.report.AlarmAt = k
	}
	mst.alarmOn = alarm
	mst.report.Votes = append(mst.report.Votes, votes)
	return rep, nil
}

// adoptPendingCh installs a channel's arrived correlation set.
func (mst *MultiStream) adoptPendingCh(c *chanState, window int) {
	s := mst.sess
	if c.pending == nil || c.edge.Now() < c.pending.readyAt {
		return
	}
	p := c.pending
	c.pending = nil
	tr := track.NewTracker(s.store, p.result.Matches, adaptThreshold(s.cfg.Track, len(p.result.Matches)))
	tr.Skip(window - p.seq - 1)
	c.tracker = tr
	c.calls++
	mst.report.CloudCalls++
}

// launchSearchCh runs one queued cloud dispatch. The wire priority
// (proto.PriAnomaly / proto.PriRoutine) is recorded in the event
// detail, so the trace shows the expedited lane overtaking routine
// uploads on the shared cloud actor.
func (mst *MultiStream) launchSearchCh(req searchReq) error {
	s := mst.sess
	c := mst.ch[req.ch]
	res, err := s.searcher.Algorithm1Counts(req.input)
	if err != nil {
		return fmt.Errorf("core: cloud search (ch%d): %w", req.ch, err)
	}
	upload := s.cfg.Link.UploadSamplesTime(len(req.input.Samples))
	searchCost := time.Duration(res.Evaluated) * s.cfg.Costs.CloudEval
	download := s.cfg.Link.DownloadSignalsTime(len(res.Matches), int(s.cfg.HorizonSeconds*s.cfg.BaseRate))

	wirePri := proto.PriRoutine
	lane := "routine"
	if req.pri == pipeline.Anomaly {
		wirePri = proto.PriAnomaly
		lane = "anomaly"
	}
	s.cloud.WaitUntil(c.edge.Now())
	s.cloud.Do(upload, "upload", fmt.Sprintf("ch%d window %d (%d samples) pri=%s(%d)", req.ch, req.window, len(req.input.Samples), lane, wirePri))
	s.cloud.Do(searchCost, "search", fmt.Sprintf("ch%d: %d evaluations, %d matches", req.ch, res.Evaluated, len(res.Matches)))
	ready := s.cloud.Do(download, "download", fmt.Sprintf("ch%d: %d signals", req.ch, len(res.Matches)))

	c.pending = &pendingSearch{seq: req.window, readyAt: ready, result: res}
	return nil
}

// finalize seals the multi-channel report.
func (mst *MultiStream) finalize() {
	mst.report.Windows = mst.k
	mst.report.Alarm = mst.alarmOn
	mst.report.Timeline = mst.sess.clk.Events()
	mst.report.PerChannel = make([]ChannelReport, mst.n)
	for i, c := range mst.ch {
		mst.report.PerChannel[i] = ChannelReport{
			CloudCalls: c.calls,
			FinalPA:    c.predictor.Current(),
			Rise:       c.predictor.Rise(),
			Decision:   c.predictor.Anomalous(),
		}
	}
}
