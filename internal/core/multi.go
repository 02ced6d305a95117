package core

import (
	"context"
	"fmt"

	"emap/internal/clock"
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

// MultiStream is a live N-channel monitoring run: one MultiWindow per
// slot goes in via Push, a MultiStepReport per slot comes out of
// Reports, and Close returns the final MultiReport.
//
// It runs the session's driver over N channels on one worker
// goroutine: every channel's window is filtered and quantised, each
// channel's track.Controller decides in channel order on its own edge
// actor and predictor, the recalls they ask for queue on the shared
// cloud actor anomaly first (a suspicious channel's recall overtakes
// routine ones), and the K-of-N vote gates the alarm.
type MultiStream struct {
	r       *run[MultiWindow, MultiStepReport]
	d       *driver
	k0      int // agreement threshold K
	wlen    int
	report  *MultiReport
	alarmOn bool
}

// StartMulti begins an N-channel streaming run (N = Config.Channels)
// with K-of-N cross-channel agreement (K = Config.Agreement). It
// shares the session's single-stream exclusivity: one live run per
// session, streams or multi-streams alike. Channel trackers run
// against the same store and cloud cost model; each channel gets its
// own edge actor ("edge-ch0", …) and predictor, while cloud calls
// share (and queue on) the session's cloud actor.
func (s *Session) StartMulti(ctx context.Context) (*MultiStream, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	n := s.cfg.Channels
	ch := make([]*channel, n)
	for i := range ch {
		tag := fmt.Sprintf("ch%d", i)
		ch[i] = s.newChannel(tag, s.clk.Actor("edge-"+tag), track.NewPredictor(s.cfg.Predict))
	}
	mst := &MultiStream{
		d:    newDriver(s, ch),
		k0:   s.cfg.Agreement,
		wlen: s.cfg.windowLen(),
		report: &MultiReport{
			Channels:  n,
			Agreement: s.cfg.Agreement,
			Modality:  s.cfg.Modality,
			AlarmAt:   -1,
		},
	}
	mst.r = startRun(s, ctx, mst.step, mst.finalize)
	return mst, nil
}

// Push feeds one slot (all channels) into the stream.
func (mst *MultiStream) Push(row MultiWindow) error {
	if len(row) != len(mst.d.ch) {
		return fmt.Errorf("core: multi-window must carry %d channels, got %d", len(mst.d.ch), len(row))
	}
	for i, w := range row {
		if len(w) != mst.wlen {
			return fmt.Errorf("core: channel %d window must be %d samples, got %d", i, mst.wlen, len(w))
		}
	}
	return mst.r.push(row)
}

// Reports returns the per-slot result channel, closed when the stream
// ends.
func (mst *MultiStream) Reports() <-chan MultiStepReport { return mst.r.reports }

// Stats snapshots the wall time the stream spent filtering,
// quantising and tracking, across channels.
func (mst *MultiStream) Stats() []StageStats { return mst.d.stats() }

// Close signals end-of-input, drains the accepted slots, and returns
// the finalised report. Idempotent; after a context cancellation it
// returns the context error.
func (mst *MultiStream) Close() (*MultiReport, error) {
	if err := mst.r.close(); err != nil {
		return nil, err
	}
	return mst.report, nil
}

// step advances every channel by one slot and applies the K-of-N rule.
func (mst *MultiStream) step(row MultiWindow) (MultiStepReport, error) {
	k := mst.d.slots
	if err := mst.d.step(row); err != nil {
		return MultiStepReport{}, err
	}
	rep := MultiStepReport{Window: k, Channels: append([]ChannelStat(nil), mst.d.out...), Alarm: mst.alarmOn}
	if rep.Channels[0].Warmup {
		rep.Warmup = true
		return rep, nil
	}
	for _, cs := range rep.Channels {
		if cs.Anomalous {
			rep.Votes++
		}
	}
	rep.Alarm = rep.Votes >= mst.k0
	rep.AlarmChanged = rep.Alarm != mst.alarmOn
	if rep.Alarm && mst.report.AlarmAt < 0 {
		mst.report.AlarmAt = k
	}
	mst.alarmOn = rep.Alarm
	mst.report.Votes = append(mst.report.Votes, rep.Votes)
	return rep, nil
}

// finalize seals the multi-channel report.
func (mst *MultiStream) finalize() {
	r := mst.report
	r.Windows = mst.d.slots
	r.Alarm = mst.alarmOn
	r.AnomalyRecalls = mst.d.anomalyRecalls
	r.Timeline = mst.d.sess.clk.Events()
	r.PerChannel = make([]ChannelReport, len(mst.d.ch))
	for i, c := range mst.d.ch {
		r.CloudCalls += c.calls
		r.PerChannel[i] = ChannelReport{
			CloudCalls: c.calls,
			FinalPA:    c.pred.Current(),
			Rise:       c.pred.Rise(),
			Decision:   c.pred.Anomalous(),
		}
	}
}
