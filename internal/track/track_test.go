package track

import (
	"testing"

	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/search"
	"emap/internal/synth"
)

// fixture builds an MDB rich enough for retrieval-then-tracking:
// several staggered instances per archetype for normal and seizure
// classes.
type fixture struct {
	store *mdb.Store
	gen   *synth.Generator
	fir   *dsp.FIR
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 21, ArchetypesPerClass: 3})
	var recs []*synth.Recording
	for arch := 0; arch < 3; arch++ {
		for i := 0; i < 4; i++ {
			recs = append(recs,
				g.Instance(synth.Normal, arch, synth.InstanceOpts{
					OffsetSamples: i * 1500, DurSeconds: 60}),
				g.Instance(synth.Seizure, arch, synth.InstanceOpts{
					OffsetSamples: (synth.OnsetAt-60)*256 + i*1500, DurSeconds: 60}),
			)
		}
	}
	store, err := mdb.Build(recs, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	fir, err := dsp.DesignBandpass(100, 11, 40, 256, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: store, gen: g, fir: fir}
}

// stream returns consecutive filtered one-second windows of a fresh
// instance, skipping the filter transient.
func (f *fixture) stream(class synth.Class, arch, offsetSamples, seconds int) [][]float64 {
	rec := f.gen.Instance(class, arch, synth.InstanceOpts{
		OffsetSamples: offsetSamples, DurSeconds: float64(seconds), NoArtifacts: true})
	filtered := f.fir.Apply(rec.Samples)
	var wins [][]float64
	for start := 512; start+256 <= len(filtered); start += 256 {
		wins = append(wins, filtered[start:start+256])
	}
	return wins
}

func (f *fixture) searchFirst(t testing.TB, wins [][]float64) *search.Result {
	t.Helper()
	s := search.NewSearcher(f.store, search.Params{})
	res, err := s.Algorithm1(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("fixture produced no retrievable matches")
	}
	return res
}

func TestTrackingRetainsTrueContinuations(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{})
	var last StepResult
	for i := 1; i <= 5 && i < len(wins); i++ {
		last = tr.Step(wins[i])
	}
	if last.Remaining == 0 {
		t.Fatal("tracking eliminated every signal for a stable normal input")
	}
	if last.Iteration != 5 {
		t.Fatalf("iteration = %d", last.Iteration)
	}
}

func TestTrackingEliminatesMismatches(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{})
	// Feed windows from a *different archetype*: continuations no
	// longer match, so tracking should collapse quickly.
	other := f.stream(synth.Normal, 1, 3000, 20)
	var last StepResult
	for i := 1; i <= 3; i++ {
		last = tr.Step(other[i])
	}
	if last.Remaining > len(res.Matches)/4 {
		t.Fatalf("tracking kept %d of %d signals on decoy input", last.Remaining, len(res.Matches))
	}
}

func TestPARisesForPreictalInput(t *testing.T) {
	f := newFixture(t)
	// Input starting in the late preictal window of the seizure
	// canonical: anomalous-labelled continuations should outlive the
	// normal matches, raising P_A (the Fig. 2 mechanism).
	off := (synth.OnsetAt - 25) * 256
	wins := f.stream(synth.Seizure, 0, off, 30)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{})
	first := tr.PA()
	var last StepResult
	for i := 1; i <= 5; i++ {
		last = tr.Step(wins[i])
	}
	if last.Remaining == 0 {
		t.Fatal("all signals eliminated")
	}
	if last.PA < first {
		t.Fatalf("P_A fell from %.2f to %.2f for a preictal input", first, last.PA)
	}
	if last.PA < 0.5 {
		t.Fatalf("P_A only %.2f after 5 preictal iterations", last.PA)
	}
}

func TestNeedsCloudWhenSetCollapses(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{TrackThreshold: 1000})
	step := tr.Step(wins[1])
	if !step.NeedsCloud {
		t.Fatal("H above match count must trigger a cloud call")
	}
}

func TestExpiryAtRecordingEnd(t *testing.T) {
	f := newFixture(t)
	// The input stream must outlast the 60 s recordings backing the
	// tracked views for expiry to occur.
	wins := f.stream(synth.Normal, 0, 3000, 80)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{AreaThreshold: 1e12}) // never eliminate on similarity
	totalExpired := 0
	for i := 1; i < len(wins); i++ {
		st := tr.Step(wins[i])
		totalExpired += st.Expired
		if st.Remaining == 0 {
			break
		}
	}
	if totalExpired == 0 {
		t.Fatal("long tracking never expired any recording view")
	}
	for _, w := range tr.Tracked() {
		if w.Expired && w.Alive {
			t.Fatal("expired signal still alive")
		}
	}
}

func TestCorrMethodCostlier(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	area := NewTracker(f.store, res.Matches, Params{})
	corr := NewTracker(f.store, res.Matches, Params{Method: CorrMethod})
	sa := area.Step(wins[1])
	sc := corr.Step(wins[1])
	if sc.Evaluations < 3*sa.Evaluations {
		t.Fatalf("corr evaluations %d not ≫ area evaluations %d", sc.Evaluations, sa.Evaluations)
	}
}

func TestCorrMethodTracksToo(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{Method: CorrMethod})
	var last StepResult
	for i := 1; i <= 3; i++ {
		last = tr.Step(wins[i])
	}
	if last.Remaining == 0 {
		t.Fatal("correlation tracker eliminated everything on a true continuation")
	}
}

func TestTrackerAccessors(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{})
	if tr.Remaining() != len(res.Matches) {
		t.Fatalf("Remaining = %d, want %d", tr.Remaining(), len(res.Matches))
	}
	if tr.Iteration() != 0 {
		t.Fatal("fresh tracker should be at iteration 0")
	}
	pa := tr.PA()
	if pa < 0 || pa > 1 {
		t.Fatalf("PA out of range: %g", pa)
	}
	if got := tr.Params().AreaThreshold; got != 900 {
		t.Fatalf("default area threshold %g", got)
	}
}

func TestTrackerIgnoresBogusMatchIDs(t *testing.T) {
	f := newFixture(t)
	tr := NewTracker(f.store, []search.Match{{SetID: -1}, {SetID: 1 << 30}}, Params{})
	if tr.Remaining() != 0 {
		t.Fatal("bogus match IDs should be dropped")
	}
	st := tr.Step(make([]float64, 256))
	if st.Remaining != 0 || st.PA != 0 || !st.NeedsCloud {
		t.Fatalf("empty tracker step: %+v", st)
	}
}

func TestPredictorRiseRule(t *testing.T) {
	p := NewPredictor(PredictorParams{})
	p.Observe(0.2)
	if p.Anomalous() {
		t.Fatal("single observation should not trigger")
	}
	for _, v := range []float64{0.25, 0.40, 0.48, 0.52, 0.52} {
		p.Observe(v)
	}
	if !p.Anomalous() {
		t.Fatalf("sustained rise 0.2→0.52 should trigger (rise=%.2f)", p.Rise())
	}
}

func TestPredictorIgnoresTransientBlip(t *testing.T) {
	p := NewPredictor(PredictorParams{})
	for _, v := range []float64{0, 0, 0, 0.22, 0, 0, 0, 0.2, 0, 0} {
		p.Observe(v)
	}
	if p.Anomalous() {
		t.Fatalf("isolated P_A blips should not trigger (rise=%.2f smoothed=%.2f)",
			p.Rise(), p.Smoothed())
	}
}

func TestPredictorAbsoluteRule(t *testing.T) {
	p := NewPredictor(PredictorParams{})
	p.Observe(0.55)
	p.Observe(0.56)
	if !p.Anomalous() {
		t.Fatal("P_A above 0.5 should trigger")
	}
}

func TestPredictorStableLowPA(t *testing.T) {
	p := NewPredictor(PredictorParams{})
	for _, v := range []float64{0.22, 0.25, 0.21, 0.24, 0.23} {
		p.Observe(v)
	}
	if p.Anomalous() {
		t.Fatal("flat low P_A should not trigger")
	}
}

func TestPredictorAccessors(t *testing.T) {
	p := NewPredictor(PredictorParams{})
	if p.Current() != 0 || p.Rise() != 0 {
		t.Fatal("empty predictor aggregates should be 0")
	}
	p.Observe(0.1)
	p.Observe(0.3)
	if p.Current() != 0.3 {
		t.Fatalf("Current = %g", p.Current())
	}
	if h := p.History(); len(h) != 2 || h[0] != 0.1 {
		t.Fatalf("History = %v", h)
	}
	p.Reset()
	if len(p.History()) != 0 {
		t.Fatal("Reset did not clear history")
	}
}

func BenchmarkStepArea100(b *testing.B) {
	f := newFixture(b)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	s := search.NewSearcher(f.store, search.Params{})
	res, _ := s.Algorithm1(wins[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewTracker(f.store, res.Matches, Params{})
		tr.Step(wins[1])
	}
}

func BenchmarkStepCorr100(b *testing.B) {
	f := newFixture(b)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	s := search.NewSearcher(f.store, search.Params{})
	res, _ := s.Algorithm1(wins[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewTracker(f.store, res.Matches, Params{Method: CorrMethod})
		tr.Step(wins[1])
	}
}

func TestHorizonExpiry(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	tr := NewTracker(f.store, res.Matches, Params{HorizonWindows: 3, AreaThreshold: 1e12})
	if tr.HorizonLeft() != 3 {
		t.Fatalf("HorizonLeft = %d", tr.HorizonLeft())
	}
	for i := 1; i <= 3; i++ {
		st := tr.Step(wins[i])
		if st.Expired > 0 {
			t.Fatalf("expired before the horizon at iteration %d", i)
		}
	}
	if tr.HorizonLeft() != 0 {
		t.Fatalf("HorizonLeft after 3 steps = %d", tr.HorizonLeft())
	}
	st := tr.Step(wins[4])
	if st.Remaining != 0 || st.Expired == 0 {
		t.Fatalf("horizon did not expire signals: %+v", st)
	}
	unlimited := NewTracker(f.store, res.Matches, Params{})
	if unlimited.HorizonLeft() != -1 {
		t.Fatal("unlimited tracker should report -1")
	}
}

func TestSkipShiftsContinuations(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	// Tracker A steps through windows 1..4 normally; tracker B skips
	// 3 windows and steps window 4 directly. Their window-4 area
	// measurements must agree for signals alive in both.
	a := NewTracker(f.store, res.Matches, Params{AreaThreshold: 1e12})
	for i := 1; i <= 4; i++ {
		a.Step(wins[i])
	}
	b := NewTracker(f.store, res.Matches, Params{AreaThreshold: 1e12})
	b.Skip(3)
	b.Step(wins[4])
	ta, tb := a.Tracked(), b.Tracked()
	for i := range ta {
		if ta[i].Alive && tb[i].Alive {
			if ta[i].LastArea != tb[i].LastArea {
				t.Fatalf("signal %d: area %g vs %g after skip", i, ta[i].LastArea, tb[i].LastArea)
			}
		}
	}
	b.Skip(-5) // no-op
	if b.Iteration() != 4 {
		t.Fatalf("negative skip changed iteration: %d", b.Iteration())
	}
}

// TestStepReadsWindowsWithoutAllocating: a step over a Build store — its
// records are counts — dequantizes every tracked signal's window into
// the tracker's one buffer: no allocation per step, however many signals
// are tracked.
func TestStepReadsWindowsWithoutAllocating(t *testing.T) {
	f := newFixture(t)
	wins := f.stream(synth.Normal, 0, 3000, 20)
	res := f.searchFirst(t, wins)
	// A threshold nothing exceeds keeps every signal tracked, so each run
	// reads the same number of windows.
	tr := NewTracker(f.store, res.Matches, Params{AreaThreshold: 1e300})
	if got := tr.Step(wins[1]); got.Evaluations < 2 {
		t.Fatalf("only %d signals tracked", got.Evaluations)
	}
	next := 2
	if allocs := testing.AllocsPerRun(10, func() {
		tr.Step(wins[next%len(wins)])
		next++
	}); allocs != 0 {
		t.Fatalf("a tracking step allocates %.0f times", allocs)
	}
}
