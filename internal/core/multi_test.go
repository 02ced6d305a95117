package core

import (
	"context"
	"strings"
	"testing"

	"emap/internal/synth"
)

// pushAllMulti streams per-channel recordings through a multi-channel
// session and collects the per-slot reports plus the final report.
func pushAllMulti(t *testing.T, sess *Session, inputs []*synth.Recording, n int) ([]MultiStepReport, *MultiReport) {
	t.Helper()
	mst, err := sess.StartMulti(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var steps []MultiStepReport
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for rep := range mst.Reports() {
			steps = append(steps, rep)
		}
	}()
	wl := sess.Config().windowLen()
	for k := 0; k < n; k++ {
		row := make(MultiWindow, len(inputs))
		ok := true
		for i, rec := range inputs {
			if (k+1)*wl > len(rec.Samples) {
				ok = false
				break
			}
			row[i] = Window(rec.Samples[k*wl : (k+1)*wl])
		}
		if !ok {
			break
		}
		if err := mst.Push(row); err != nil {
			t.Fatalf("push slot %d: %v", k, err)
		}
	}
	report, err := mst.Close()
	<-collected
	if err != nil {
		t.Fatal(err)
	}
	return steps, report
}

// seizureChannels builds a 4-channel input where only the first nSeiz
// channels carry the (preictal) seizure pattern; the rest are normal
// background.
func seizureChannels(g *synth.Generator, nSeiz, total int, durSeconds float64) []*synth.Recording {
	inputs := make([]*synth.Recording, total)
	for i := 0; i < total; i++ {
		if i < nSeiz {
			inputs[i] = g.SeizureInput(i, 20, durSeconds)
		} else {
			inputs[i] = g.Instance(synth.Normal, i, synth.InstanceOpts{OffsetSamples: 0, DurSeconds: durSeconds})
		}
	}
	return inputs
}

// TestMultiChannelAgreement: the K-of-N gate must suppress a
// single-channel false positive while a cross-channel seizure still
// raises the alarm within the same window budget a single channel
// needs for its own decision.
func TestMultiChannelAgreement(t *testing.T) {
	store, g := buildStore(t)
	const channels = 4
	const windows = 25

	// Budget: the window at which a plain single-channel session
	// decides on the same seizure input.
	soloSess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	soloSteps, soloRep := pushAll(t, soloSess, g.SeizureInput(0, 20, windows), windows)
	if !soloRep.Decision {
		t.Fatalf("single-channel run did not decide anomalous (FinalPA %g) — seed workload broken", soloRep.FinalPA)
	}
	soloAt := -1
	for _, st := range soloSteps {
		if st.Decision {
			soloAt = st.Window
			break
		}
	}

	// 3 of 4 channels seizing, K=2: the alarm must fire, and not
	// meaningfully later than the single-channel decision.
	sessK2, err := NewSession(store, Config{Channels: channels, Agreement: 2})
	if err != nil {
		t.Fatal(err)
	}
	steps, rep := pushAllMulti(t, sessK2, seizureChannels(g, 3, channels, windows), windows)
	if rep.Channels != channels || rep.Agreement != 2 {
		t.Fatalf("report N/K = %d/%d, want %d/2", rep.Channels, rep.Agreement, channels)
	}
	if rep.AlarmAt < 0 {
		t.Fatalf("K=2 alarm never fired over a 3-channel seizure (votes %v)", rep.Votes)
	}
	budget := soloAt + 3 // small slack: channel instances carry independent noise
	if rep.AlarmAt > budget {
		t.Fatalf("K=2 alarm at window %d, single-channel decision at %d (budget %d)", rep.AlarmAt, soloAt, budget)
	}
	sawTransition := false
	for _, st := range steps {
		if st.Alarm && st.Votes < 2 {
			t.Fatalf("window %d alarmed with %d votes under K=2", st.Window, st.Votes)
		}
		if st.AlarmChanged && st.Alarm {
			sawTransition = true
		}
	}
	if !sawTransition {
		t.Fatal("no step reported the alarm transition")
	}
	// The suspicious channels' recalls must ride the expedited lane
	// once their predictors turn: the trace records the wire priority.
	sawAnomalyLane := false
	for _, ev := range rep.Timeline {
		if ev.Actor == "cloud" && ev.Name == "upload" && strings.Contains(ev.Detail, "pri=anomaly") {
			sawAnomalyLane = true
			break
		}
	}
	if rep.AnomalyRecalls > 0 && !sawAnomalyLane {
		t.Fatal("anomaly-lane recalls counted but none visible in the timeline")
	}
	if rep.AnomalyRecalls == 0 {
		t.Fatal("no recall rode the anomaly lane during a 3-channel seizure")
	}

	// Same workload, K=4: one quiet channel must hold the alarm off.
	sessK4, err := NewSession(store, Config{Channels: channels, Agreement: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, repK4 := pushAllMulti(t, sessK4, seizureChannels(g, 3, channels, windows), windows)
	if repK4.AlarmAt >= 0 {
		t.Fatalf("K=4 alarm fired at window %d with only 3 seizing channels", repK4.AlarmAt)
	}
	if repK4.Alarm {
		t.Fatal("K=4 final alarm raised with only 3 seizing channels")
	}

	// One seizing channel, K=2: the single-channel false positive is
	// suppressed even though that channel's own predictor fires.
	sessFP, err := NewSession(store, Config{Channels: channels, Agreement: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, repFP := pushAllMulti(t, sessFP, seizureChannels(g, 1, channels, windows), windows)
	if repFP.AlarmAt >= 0 {
		t.Fatalf("K=2 alarm fired at window %d from a single seizing channel", repFP.AlarmAt)
	}
	maxVotes := 0
	for _, v := range repFP.Votes {
		if v > maxVotes {
			maxVotes = v
		}
	}
	if maxVotes != 1 {
		t.Fatalf("lone seizing channel produced %d concurrent votes, want exactly 1", maxVotes)
	}
	if !repFP.PerChannel[0].Decision {
		t.Fatal("the seizing channel's own predictor never fired — suppression untested")
	}
}

// TestMultiStreamLifecycle: push validation, close idempotence and
// per-stage counters on the multi-channel surface.
func TestMultiStreamLifecycle(t *testing.T) {
	store, _ := buildStore(t)
	sess, err := NewSession(store, Config{Channels: 2, WarmupWindows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mst, err := sess.StartMulti(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wl := sess.Config().windowLen()
	if err := mst.Push(MultiWindow{make(Window, wl)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := mst.Push(MultiWindow{make(Window, wl), make(Window, 3)}); err == nil {
		t.Fatal("short channel window accepted")
	}
	go func() {
		for range mst.Reports() {
		}
	}()
	for i := 0; i < 5; i++ {
		if err := mst.Push(MultiWindow{make(Window, wl), make(Window, wl)}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := mst.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 5 {
		t.Fatalf("Windows = %d, want 5", rep.Windows)
	}
	if _, err := mst.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if err := mst.Push(MultiWindow{make(Window, wl), make(Window, wl)}); err != ErrStreamClosed {
		t.Fatalf("push after close: %v", err)
	}
	// Five slots went through every stage.
	for i, s := range mst.Stats() {
		if s.Name != [...]string{"filter", "quantize", "track"}[i] || s.Busy <= 0 {
			t.Fatalf("stage %d: %+v", i, s)
		}
	}
	// The session is reusable, including for single-channel streams.
	next, err := sess.Start(context.Background())
	if err != nil {
		t.Fatalf("session unusable after multi-stream: %v", err)
	}
	next.Close()
}
