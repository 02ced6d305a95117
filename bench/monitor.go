package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"emap"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
	"emap/internal/track"
)

// monitor is the paper's own loop: emap.New → Session.Start →
// Stream.Push, one StepReport awaited per window, against a float64
// store — no socket, no framing, no quantized tier.
type monitor struct {
	env
	store *emap.Store
	// order is the seed's order of the classes: round r monitors one
	// held-out recording of class order[r mod 4], so the cycle of round
	// shapes is one session per class.
	order []int
	// cycle holds the current cycle's recordings by class, drawn in
	// class order so that every seed monitors the same recordings.
	cycle []*emap.Recording
	input *emap.Recording // the round's held-out recording

	// kept are the sessions settle re-runs through Session.Process.
	kept []keptSession

	// live counters for the per-layer table.
	windows, cloudCalls int
	busy                map[string]time.Duration

	// traced run: the replay's searcher and the matches of the last
	// replayed recall.
	shadow  *search.Searcher
	matches []search.Match
}

type keptSession struct {
	input   *emap.Recording
	trace   []float64
	verdict bool
}

func (w *monitor) setup(e env) error {
	w.env = e
	w.rewind()
	store, err := emap.BuildMDB(w.corpus)
	if err != nil {
		return err
	}
	w.store = store
	w.busy = map[string]time.Duration{}
	// One untimed session touches the store's records, so the first
	// timed session does not pay their lazy sliding statistics.
	warm := newRecorder(nil)
	w.session(warm, w.heldOut(synth.Seizure, 0), false)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up session: %w", warm.firstErr)
	}
	w.windows, w.cloudCalls = 0, 0
	clear(w.busy)
	w.order = w.rnd.Perm(len(synth.Classes))
	return nil
}

func (w *monitor) shapes() int { return len(synth.Classes) }

// heldOut draws one recording to monitor: a seizure approach that
// starts 30 s before the onset, or a stretch of any other class.
func (w *monitor) heldOut(class synth.Class, arch int) *emap.Recording {
	dur := float64(w.sessionWindows)
	if class == synth.Seizure {
		return w.gen.SeizureInput(arch, 30, dur)
	}
	return w.gen.Instance(class, arch, synth.InstanceOpts{OffsetSamples: 3000, DurSeconds: dur})
}

// prepare draws round r's recording: a fresh noise draw of the class
// the cycle has reached, always of the same archetype, so the rounds of
// one shape monitor the same waveform in another voice.
func (w *monitor) prepare(r int) {
	if r%len(w.order) == 0 {
		w.cycle = w.cycle[:0]
		for c, class := range synth.Classes {
			w.cycle = append(w.cycle, w.heldOut(class, c%w.archetypes))
		}
	}
	w.input = w.cycle[w.order[r%len(w.order)]]
}

func (w *monitor) round(r int, rc *recorder) {
	// Every verifyStride-th session is kept for settle.
	w.session(rc, w.input, r%verifyStride == 0)
}

// session is one monitoring session over input: every window pushed
// and its StepReport awaited.
func (w *monitor) session(rc *recorder, input *emap.Recording, keep bool) {
	sess, err := emap.New(w.store)
	if err != nil {
		rc.attempted++
		rc.fail(err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := sess.Start(ctx)
	if err != nil {
		rc.attempted++
		rc.fail(err)
		return
	}
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	n := w.sessionWindows
	for k := 0; k < n; k++ {
		raw := input.Samples[k*windowLen : (k+1)*windowLen]
		var rep emap.StepReport
		start := time.Now()
		d := rc.op(func() error {
			if err := stream.Push(emap.Window(raw)); err != nil {
				return err
			}
			timeout.Reset(opTimeout)
			select {
			case got, ok := <-stream.Reports():
				if !ok {
					return errors.New("stream ended before its StepReport")
				}
				rep = got
			case <-timeout.C:
				return errors.New("no StepReport within the 5 s limit")
			}
			return checkStep(rep, k)
		})
		v := uint64(rep.Remaining)<<8 | uint64(math.Float64bits(rep.PA)>>40)<<16
		if rep.Decision {
			v |= 1
		}
		if rep.CloudCallIssued {
			v |= 2
		}
		rc.dig.add(v)
		if rc.tr != nil {
			w.trace(rc.tr, len(rc.lat)-1, raw, rep, start, d)
		}
	}
	report, err := stream.Close()
	if err != nil || report.Windows != n {
		rc.attempted++
		rc.fail(fmt.Errorf("closing session: %v (report %+v)", err, report))
		return
	}
	w.windows += report.Windows
	w.cloudCalls += report.CloudCalls
	for _, st := range stream.Stats() {
		w.busy[st.Name] += st.Busy
	}
	if keep {
		w.kept = append(w.kept, keptSession{input: input, trace: report.PATrace, verdict: report.Decision})
	}
}

// checkStep verifies one StepReport: the right window, a probability,
// a tracked set no larger than the top-K it came from.
func checkStep(rep emap.StepReport, k int) error {
	switch {
	case rep.Window != k:
		return fmt.Errorf("StepReport for window %d, want %d", rep.Window, k)
	case rep.PA < 0 || rep.PA > 1 || math.IsNaN(rep.PA):
		return fmt.Errorf("window %d: P_A %g", k, rep.PA)
	case rep.Remaining < 0 || rep.Remaining > topK:
		return fmt.Errorf("window %d: %d signals tracked", k, rep.Remaining)
	}
	return nil
}

func (w *monitor) verify(*recorder) {}

// settle re-runs the kept sessions through the batch Session.Process,
// which free-runs the same windows without waiting per report; the P_A
// trajectory and the verdict must not depend on the pacing.
func (w *monitor) settle(rc *recorder) {
	for _, k := range w.kept {
		sess, err := emap.New(w.store)
		if err != nil {
			rc.fail(err)
			continue
		}
		rep, err := sess.Process(k.input, w.sessionWindows)
		if err != nil {
			rc.fail(fmt.Errorf("batch re-run: %w", err))
			continue
		}
		same := rep.Decision == k.verdict && len(rep.PATrace) == len(k.trace)
		for i := 0; same && i < len(k.trace); i++ {
			same = rep.PATrace[i] == k.trace[i]
		}
		if !same {
			rc.fail(errors.New("streamed session differs from its batch Session.Process re-run"))
		}
	}
	w.kept = w.kept[:0]
}

func (w *monitor) live(out layerTable) {
	if w.windows == 0 {
		return
	}
	n := float64(w.windows)
	out["pipeline.filter_busy_ms"] = ms(w.busy["filter"]) / n
	out["pipeline.quantize_busy_ms"] = ms(w.busy["quantize"]) / n
	out["pipeline.track_busy_ms"] = ms(w.busy["track"]) / n
	out["core.cloud_calls_per_window"] = float64(w.cloudCalls) / n
}

func (w *monitor) teardown() {}

// trace records the window's live span and, every replayStride-th
// window, replays it: filter → quantize → (on a recall window)
// Algorithm1 → NewTracker → Step. The tracker is rebuilt from the last
// replayed recall's matches, so the step follows every match of that
// set, not only the ones the live tracker still holds.
func (w *monitor) trace(tr *tracer, op int, raw []float64, rep emap.StepReport, start time.Time, d time.Duration) {
	root := tr.root("core.window", op, start, d)
	// A fixed phase would replay the same five window positions of
	// every 40-window session, and the recall cadence is periodic in
	// them.
	if !sampled(op, w.sessionWindows) {
		return
	}
	if w.shadow == nil {
		w.shadow = emap.NewSearcher(w.store, emap.SearchParams{})
	}
	tr.replayed(d)
	var filtered, window []float64
	tr.layerSpan("dsp.filter", op, root, func() { filtered = w.fir.NewStream().NextBlock(raw) })
	if rep.Warmup {
		return
	}
	tr.layerSpan("proto.quantize", op, root, func() {
		counts, scale := proto.Quantize(filtered)
		window = proto.Dequantize(counts, scale)
	})
	if rep.CloudCallIssued {
		tr.layerSpan("search.algorithm1", op, root, func() {
			if res, err := w.shadow.Algorithm1(window); err == nil {
				w.matches = res.Matches
			}
		})
	}
	if rep.Tracked && len(w.matches) > 0 {
		var t *track.Tracker
		tr.layerSpan("track.new_tracker", op, root, func() {
			t = track.NewTracker(w.store, w.matches, track.Params{})
		})
		tr.layerSpan("track.step", op, root, func() { t.Step(window) })
	}
}
