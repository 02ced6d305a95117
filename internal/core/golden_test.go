package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emap/internal/clock"
	"emap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/session.golden from the current code")

// TestSessionGolden pins what a session computes, bit for bit: the P_A
// trace, the decision, the cloud calls, Δ_initial, every IterStat and
// the simulated event trace, for Process and for Start/Push on one input
// per class, and the votes and alarm of a 4-channel StartMulti run. Any
// change to the edge loop that moves a number shows here. Regenerate
// with `go test ./internal/core -run TestSessionGolden -update` only
// when a change is meant to move them, and say why.
func TestSessionGolden(t *testing.T) {
	store, g := buildStore(t)
	var b strings.Builder
	for _, class := range synth.Classes {
		input := g.Instance(class, 0, synth.InstanceOpts{OffsetSamples: 2500, DurSeconds: 30, NoArtifacts: true})
		if class == synth.Seizure {
			input = g.SeizureInput(0, 30, 30)
		}
		sess, err := NewSession(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Process(input, 0)
		if err != nil {
			t.Fatal(err)
		}
		writeReport(&b, "process "+class.String(), rep)

		// Two streams back to back on one session: the second inherits
		// the first's predictor and clock.
		sess, err = NewSession(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			steps, rep := pushAll(t, sess, input, 1<<30)
			name := fmt.Sprintf("stream %s run %d", class, run)
			writeReport(&b, name, rep)
			h := fnv.New64a()
			for _, st := range steps {
				fmt.Fprintf(h, "%+v\n", st)
			}
			fmt.Fprintf(&b, "%s steps %d %016x\n", name, len(steps), h.Sum64())
		}
	}

	sess, err := NewSession(store, Config{Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	steps, rep := pushAllMulti(t, sess, seizureChannels(g, 3, 4, 30), 30)
	fmt.Fprintf(&b, "multi windows %d alarm %v alarmAt %d cloudCalls %d anomalyRecalls %d\n",
		rep.Windows, rep.Alarm, rep.AlarmAt, rep.CloudCalls, rep.AnomalyRecalls)
	fmt.Fprintf(&b, "multi votes %v\n", rep.Votes)
	for i, c := range rep.PerChannel {
		fmt.Fprintf(&b, "multi ch%d calls %d finalPA %016x rise %016x decision %v\n",
			i, c.CloudCalls, math.Float64bits(c.FinalPA), math.Float64bits(c.Rise), c.Decision)
	}
	h := fnv.New64a()
	for _, st := range steps {
		fmt.Fprintf(h, "%+v\n", st)
	}
	fmt.Fprintf(&b, "multi steps %d %016x\n", len(steps), h.Sum64())
	fmt.Fprintf(&b, "multi timeline %d %016x\n", len(rep.Timeline), timelineHash(rep.Timeline))

	path := filepath.Join("testdata", "session.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := strings.Split(b.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
	if len(got) != len(strings.Split(string(want), "\n")) {
		t.Fatalf("got %d lines, want %d", len(got), len(strings.Split(string(want), "\n")))
	}
}

// writeReport writes one single-channel report as golden lines.
func writeReport(b *strings.Builder, name string, rep *Report) {
	fmt.Fprintf(b, "%s windows %d decision %v cloudCalls %d initial %d\n",
		name, rep.Windows, rep.Decision, rep.CloudCalls, int64(rep.InitialOverhead))
	fmt.Fprintf(b, "%s pa", name)
	for _, pa := range rep.PATrace {
		fmt.Fprintf(b, " %016x", math.Float64bits(pa))
	}
	b.WriteString("\n")
	for _, it := range rep.Iters {
		fmt.Fprintf(b, "%s iter %d at %d tracked %v pa %016x rem %d elim %d exp %d call %v cost %d\n",
			name, it.Window, int64(it.At), it.Tracked, math.Float64bits(it.PA),
			it.Remaining, it.Eliminated, it.Expired, it.CloudCallIssued, int64(it.TrackCost))
	}
	fmt.Fprintf(b, "%s timeline %d %016x\n", name, len(rep.Timeline), timelineHash(rep.Timeline))
}

// timelineHash is an FNV-1a hash over every event's actor, name,
// interval and detail.
func timelineHash(events []clock.Event) uint64 {
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintf(h, "%s|%s|%d|%d|%s\n", e.Actor, e.Name, int64(e.Start), int64(e.End), e.Detail)
	}
	return h.Sum64()
}
