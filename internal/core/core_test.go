package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"emap/internal/mdb"
	"emap/internal/synth"
	"emap/internal/track"
)

// buildStore returns a mid-size MDB with staggered normal and seizure
// instances across three archetypes, and a generator in the state that
// building it left. The store is built once per process and shared —
// no test writes to it — and every call gets its own generator, so a
// test draws the same inputs whatever ran before it.
func buildStore(t testing.TB) (*mdb.Store, *synth.Generator) {
	t.Helper()
	fixture.once.Do(func() {
		g := synth.NewGenerator(synth.Config{Seed: 33, ArchetypesPerClass: 3})
		var recs []*synth.Recording
		for arch := 0; arch < 3; arch++ {
			for i := 0; i < 4; i++ {
				recs = append(recs,
					g.Instance(synth.Normal, arch, synth.InstanceOpts{
						OffsetSamples: i * 2000, DurSeconds: 90}),
					g.Instance(synth.Seizure, arch, synth.InstanceOpts{
						OffsetSamples: (synth.PreictalAt)*256 + i*2000, DurSeconds: 120}),
				)
			}
		}
		fixture.store, fixture.err = mdb.Build(recs, mdb.DefaultBuildConfig())
		fixture.gen = g
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.store, fixture.gen.Clone()
}

var fixture struct {
	once  sync.Once
	store *mdb.Store
	gen   *synth.Generator
	err   error
}

func TestSessionNormalInput(t *testing.T) {
	store, g := buildStore(t)
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 25, NoArtifacts: true})
	rep, err := sess.Process(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 25 {
		t.Fatalf("windows = %d", rep.Windows)
	}
	if rep.CloudCalls < 1 {
		t.Fatal("no correlation set ever adopted")
	}
	if len(rep.PATrace) == 0 {
		t.Fatal("no P_A observations")
	}
	if rep.Decision {
		t.Fatalf("normal input classified anomalous (PA trace %v)", rep.PATrace)
	}
	if !rep.Correct() {
		t.Fatal("Correct() disagrees with decision/class")
	}
}

func TestSessionPreictalInput(t *testing.T) {
	store, g := buildStore(t)
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Input beginning 30 s before onset: the session should predict
	// the seizure from the preictal signature.
	input := g.SeizureInput(0, 30, 28)
	rep, err := sess.Process(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Decision {
		t.Fatalf("preictal input not predicted (PA trace %v)", rep.PATrace)
	}
}

func TestSessionInitialOverheadStructure(t *testing.T) {
	store, g := buildStore(t)
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 1, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 15, NoArtifacts: true})
	rep, err := sess.Process(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Δ_initial = Δ_EC + Δ_CS + Δ_CE must be positive and dominated
	// by the search (sub-10 s for this mid-size store).
	if rep.InitialOverhead <= 0 || rep.InitialOverhead > 10*time.Second {
		t.Fatalf("Δ_initial = %v", rep.InitialOverhead)
	}
	// The timeline must contain all Fig. 9 phases.
	phases := map[string]bool{}
	for _, e := range rep.Timeline {
		phases[e.Name] = true
	}
	for _, want := range []string{"sample", "filter", "upload", "search", "download", "track"} {
		if !phases[want] {
			t.Fatalf("timeline missing phase %q (have %v)", want, phases)
		}
	}
}

func TestSessionRecallCadence(t *testing.T) {
	store, g := buildStore(t)
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 40, NoArtifacts: true})
	rep, err := sess.Process(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With an 8 s horizon and margin 3, a 40 s run must refresh the
	// correlation set several times (paper: every ~5 iterations).
	if rep.CloudCalls < 3 {
		t.Fatalf("cloud calls = %d, want ≥ 3 over 40 s", rep.CloudCalls)
	}
}

func TestSessionRealTimeBudget(t *testing.T) {
	store, g := buildStore(t)
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 2, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 20, NoArtifacts: true})
	rep, err := sess.Process(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	if max := rep.MaxTrackCost(); max >= time.Second {
		t.Fatalf("tracking cost %v breaks the 1 s real-time budget", max)
	}
}

func TestSessionCorrMethodSlower(t *testing.T) {
	store, g := buildStore(t)
	area, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := NewSession(store, Config{Track: track.Params{Method: track.CorrMethod}})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 15, NoArtifacts: true})
	ra, err := area.Process(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := corr.Process(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	ca, cc := ra.MaxTrackCost(), rc.MaxTrackCost()
	if cc < 3*ca {
		t.Fatalf("corr tracking %v not ≫ area tracking %v (Fig. 8b)", cc, ca)
	}
}

func TestSessionErrors(t *testing.T) {
	store, g := buildStore(t)
	if _, err := NewSession(nil, Config{}); err == nil {
		t.Fatal("nil store should error")
	}
	if _, err := NewSession(mdb.NewStore(), Config{}); err == nil {
		t.Fatal("empty store should error")
	}
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Process(nil, 0); err == nil {
		t.Fatal("nil recording should error")
	}
	wrongRate := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 5, Rate: 128})
	if _, err := sess.Process(wrongRate, 0); err == nil {
		t.Fatal("wrong-rate recording should error")
	}
	tiny := &synth.Recording{ID: "tiny", Rate: 256, Samples: make([]float64, 100)}
	if _, err := sess.Process(tiny, 0); err == nil {
		t.Fatal("sub-window recording should error")
	}
}

func TestSessionMaxWindows(t *testing.T) {
	store, g := buildStore(t)
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 30, NoArtifacts: true})
	rep, err := sess.Process(input, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 7 {
		t.Fatalf("maxWindows ignored: %d", rep.Windows)
	}
}

func TestSessionTimelineRenders(t *testing.T) {
	store, g := buildStore(t)
	sess, err := NewSession(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 10, NoArtifacts: true})
	if _, err := sess.Process(input, 0); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := sess.Clock().WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "search") {
		t.Fatal("rendered timeline missing the cloud search")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Link.Name != "LTE" {
		t.Fatalf("default link %q", cfg.Link.Name)
	}
	if cfg.windowLen() != 256 {
		t.Fatalf("window length %d", cfg.windowLen())
	}
	if cfg.Costs.CloudEval != 1500*time.Nanosecond {
		t.Fatalf("cloud eval cost %v", cfg.Costs.CloudEval)
	}
	if cfg.HorizonSeconds != 8 || cfg.RecallMargin != 3 || cfg.WarmupWindows != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func BenchmarkSessionSecond(b *testing.B) {
	store, g := buildStore(b)
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 30, NoArtifacts: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, _ := NewSession(store, Config{})
		_, _ = sess.Process(input, 10)
	}
}
