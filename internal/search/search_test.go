package search

import (
	"math"
	"reflect"
	"testing"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// buildFixture constructs a small MDB plus a bandpass-filtered input
// window drawn from an archetype that is represented in the store.
type fixture struct {
	store *mdb.Store
	recs  []*synth.Recording // what the store was built from
	gen   *synth.Generator
	fir   *dsp.FIR
}

func newFixture(t testing.TB, instancesPerArch int) *fixture {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 11, ArchetypesPerClass: 3})
	var recs []*synth.Recording
	for arch := 0; arch < 3; arch++ {
		for i := 0; i < instancesPerArch; i++ {
			// Stagger crops so true alignments land at varied
			// record offsets, as they would in real corpora.
			recs = append(recs,
				g.Instance(synth.Normal, arch, synth.InstanceOpts{
					OffsetSamples: i * 2000, DurSeconds: 30}),
				g.Instance(synth.Seizure, arch, synth.InstanceOpts{
					OffsetSamples: (synth.OnsetAt-20)*256 + i*1500, DurSeconds: 40}),
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
	return &fixture{store: store, recs: recs, gen: g, fir: fir}
}

// input returns a filtered one-second window from a fresh instance of
// the given class/archetype, positioned inside the region the MDB
// instances cover.
func (f *fixture) input(class synth.Class, arch int) []float64 {
	off := 1800
	if class == synth.Seizure {
		off = (synth.OnsetAt-20)*256 + 1800
	}
	rec := f.gen.Instance(class, arch, synth.InstanceOpts{
		OffsetSamples: off, DurSeconds: 10, NoArtifacts: true})
	filtered := f.fir.Apply(rec.Samples)
	return filtered[1024:1280] // steady-state one-second window
}

func TestAlgorithm1FindsMatches(t *testing.T) {
	f := newFixture(t, 2)
	s := NewSearcher(f.store, Params{})
	res, err := s.Algorithm1(f.input(synth.Normal, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("Algorithm 1 found no matches for an in-archetype input")
	}
	for i, m := range res.Matches {
		if m.Omega <= s.Params().Delta {
			t.Fatalf("match %d has ω=%g below δ", i, m.Omega)
		}
		if i > 0 && m.Omega > res.Matches[i-1].Omega {
			t.Fatalf("matches not descending at %d", i)
		}
	}
}

func TestMatchOffsetsVerifiable(t *testing.T) {
	f := newFixture(t, 1)
	s := NewSearcher(f.store, Params{})
	input := f.input(synth.Normal, 1)
	res, err := s.Algorithm1(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Skip("no matches to verify")
	}
	sets := f.store.Sets()
	// ω is Pearson's r of the counts, which no scale changes: recomputed
	// over the stored window as WindowInto dequantizes it, against the
	// dequantized counts the search made of the input.
	counts, scale := proto.Quantize(input)
	query := proto.Dequantize(counts, scale)
	var buf []float64
	for _, m := range res.Matches[:min(5, len(res.Matches))] {
		win, ok := f.store.Snapshot().WindowInto(&buf, sets[m.SetID], m.Beta, len(input))
		if !ok {
			t.Fatalf("match %+v has no window", m)
		}
		if got := dsp.Pearson(query, win); math.Abs(got-m.Omega) > 1e-9 {
			t.Fatalf("recomputed ω=%g differs from reported %g", got, m.Omega)
		}
	}
}

func TestAlgorithm1CheaperThanExhaustive(t *testing.T) {
	f := newFixture(t, 2)
	s := NewSearcher(f.store, Params{})
	input := f.input(synth.Seizure, 0)
	a1, err := s.Algorithm1(input)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := s.Exhaustive(input)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(ex.Evaluated) / float64(a1.Evaluated)
	if ratio < 3 {
		t.Fatalf("Algorithm 1 speedup only %.1f× in evaluations (a1=%d ex=%d)", ratio, a1.Evaluated, ex.Evaluated)
	}
	t.Logf("evaluation reduction: %.1f× (paper: ≈6.8×)", ratio)
}

func TestAlgorithm1QualityCloseToExhaustive(t *testing.T) {
	// Redundancy is what protects Algorithm 1's quality (paper
	// §VI-B), so this fixture needs several instances per archetype.
	f := newFixture(t, 6)
	s := NewSearcher(f.store, Params{})
	input := f.input(synth.Normal, 2)
	a1, _ := s.Algorithm1(input)
	ex, _ := s.Exhaustive(input)
	if len(ex.Matches) == 0 {
		t.Skip("no exhaustive matches")
	}
	if len(a1.Matches) == 0 {
		t.Fatalf("Algorithm 1 found nothing while exhaustive found %d", len(ex.Matches))
	}
	// Compare the average ω over the overlap of the two rankings.
	k := min(len(a1.Matches), len(ex.Matches))
	avg := func(ms []Match) float64 {
		var s float64
		for _, m := range ms[:k] {
			s += m.Omega
		}
		return s / float64(k)
	}
	loss := avg(ex.Matches) - avg(a1.Matches)
	if loss > 0.03 {
		t.Fatalf("quality loss %.4f too large (a1=%.4f ex=%.4f over top %d)",
			loss, avg(a1.Matches), avg(ex.Matches), k)
	}
}

func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	f := newFixture(t, 1)
	input := f.input(synth.Normal, 0)
	s1 := NewSearcher(f.store, Params{Workers: 1})
	s8 := NewSearcher(f.store, Params{Workers: 8})
	r1, _ := s1.Algorithm1(input)
	r8, _ := s8.Algorithm1(input)
	if r1.Evaluated != r8.Evaluated || r1.Candidates != r8.Candidates {
		t.Fatalf("worker count changed scan stats: %d/%d vs %d/%d",
			r1.Evaluated, r1.Candidates, r8.Evaluated, r8.Candidates)
	}
	if len(r1.Matches) != len(r8.Matches) {
		t.Fatalf("worker count changed match count: %d vs %d", len(r1.Matches), len(r8.Matches))
	}
	for i := range r1.Matches {
		if r1.Matches[i] != r8.Matches[i] {
			t.Fatalf("match %d differs across worker counts: %+v vs %+v", i, r1.Matches[i], r8.Matches[i])
		}
	}
}

func TestSearchErrors(t *testing.T) {
	f := newFixture(t, 1)
	s := NewSearcher(f.store, Params{})
	if _, err := s.Algorithm1(nil); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestSearchFlatInput(t *testing.T) {
	f := newFixture(t, 1)
	s := NewSearcher(f.store, Params{})
	res, err := s.Algorithm1(make([]float64, 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatal("flat input should match nothing")
	}
}

func TestSearchEmptyStore(t *testing.T) {
	s := NewSearcher(mdb.NewStore(), Params{})
	res, err := s.Algorithm1(make([]float64, 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.SetsScanned != 0 {
		t.Fatal("empty store should yield empty result")
	}
}

func TestAllOffsetsMode(t *testing.T) {
	f := newFixture(t, 1)
	input := f.input(synth.Normal, 0)
	dedup := NewSearcher(f.store, Params{})
	dup := NewSearcher(f.store, Params{AllOffsets: true})
	rd, _ := dedup.Algorithm1(input)
	ra, _ := dup.Algorithm1(input)
	// AllOffsets can only retain more or equally many candidates.
	if ra.Candidates != rd.Candidates {
		t.Fatalf("candidate counts should agree: %d vs %d", ra.Candidates, rd.Candidates)
	}
	// In dedup mode each SetID appears at most once.
	seen := map[int]bool{}
	for _, m := range rd.Matches {
		if seen[m.SetID] {
			t.Fatalf("dedup mode repeated set %d", m.SetID)
		}
		seen[m.SetID] = true
	}
}

func TestTopKBoundRespected(t *testing.T) {
	f := newFixture(t, 2)
	s := NewSearcher(f.store, Params{TopK: 5})
	res, _ := s.Algorithm1(f.input(synth.Normal, 0))
	if len(res.Matches) > 5 {
		t.Fatalf("TopK=5 returned %d matches", len(res.Matches))
	}
}

func TestSkipForBehaviour(t *testing.T) {
	skipFor := NewSearcher(nil, Params{}).skipFor
	// High correlation → minimal advance (fine scan).
	if adv := skipFor(0.95); adv != 1 {
		t.Fatalf("skip at ω=0.95 is %d, want 1", adv)
	}
	// Low correlation → long jump (the maximum, since 0.02 < floor).
	lo := skipFor(0.02)
	if lo < 5 {
		t.Fatalf("skip at ω=0.02 is %d, want ≥5", lo)
	}
	// Strong anti-correlation means "next to a peak": fine scan, not
	// a maximum jump.
	if adv := skipFor(-0.9); adv != skipFor(0.9) {
		t.Fatalf("skip must use |ω|: %d vs %d", adv, skipFor(0.9))
	}
	// Monotone in |ω|: lower magnitude never advances less.
	prev := skipFor(1.0)
	for w := 0.9; w >= 0; w -= 0.1 {
		cur := skipFor(w)
		if cur < prev {
			t.Fatalf("skip not monotone at ω=%g: %d < %d", w, cur, prev)
		}
		prev = cur
	}
}

// TestSkipRoundingMatchesRound: skipFor rounds its quotient
// x = α·SkipScale/env as int(x+0.5) where it used to call math.Round.
// Over the reachable domain — x > 0, the result clamped to ≥ 1 — the
// two agree: at every integer and half-integer a table-sized skip can
// reach and the floats either side, at the binade edges where x+0.5
// stops being exact, and through real searchers at envelopes that put
// the quotient on a rounding boundary. The one input where the
// unclamped values differ is the float just below 0.5.
func TestSkipRoundingMatchesRound(t *testing.T) {
	clamp := func(adv int) int {
		if adv < 1 {
			return 1
		}
		return adv
	}
	check := func(x float64) {
		t.Helper()
		if got, want := clamp(int(x+0.5)), clamp(int(math.Round(x))); got != want {
			t.Fatalf("x = %v (%x): int(x+0.5) clamps to %d, math.Round to %d", x, math.Float64bits(x), got, want)
		}
	}
	around := func(x float64) {
		t.Helper()
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
		if x > 0 {
			check(math.Nextafter(x, 0))
		}
	}
	for m := 0; m <= 2*maxDecayTable; m++ {
		around(float64(m))
		around(float64(m) + 0.5)
	}
	for k := -1074; k <= 50; k++ {
		x := math.Ldexp(1, k)
		around(x)
		around(x + 0.5)
		if x > 0.5 {
			around(x - 0.5)
		}
	}
	below := math.Nextafter(0.5, 0)
	if int(below+0.5) != 1 || int(math.Round(below)) != 0 {
		t.Fatalf("expected the float below 0.5 to be the one unclamped difference, got %d and %d", int(below+0.5), int(math.Round(below)))
	}
	for _, p := range []Params{{}, {Alpha: 0.001}, {Alpha: 0.02, SkipScale: 333}, {OmegaFloor: 1e-3}, {Alpha: 0.9, SkipScale: 1}} {
		s := NewSearcher(nil, p)
		ref := func(env float64) int {
			env = math.Max(math.Abs(env), s.params.OmegaFloor)
			return clamp(int(math.Round(s.rule.SkipNum / env)))
		}
		for m := 0; m <= s.maxAdv+1; m++ {
			// env that lands the quotient on m+½, then its neighbours.
			env := s.rule.SkipNum / (float64(m) + 0.5)
			for i, e := 0, math.Nextafter(env, 0); i < 3; i, e = i+1, math.Nextafter(e, 2) {
				if got, want := s.skipFor(e), ref(e); got != want {
					t.Fatalf("%+v: skipFor(%v) = %d, math.Round form = %d", p, e, got, want)
				}
			}
		}
		for env := 0.0; env <= 1; env += 1.0 / 4096 {
			if got, want := s.skipFor(env), ref(env); got != want {
				t.Fatalf("%+v: skipFor(%v) = %d, math.Round form = %d", p, env, got, want)
			}
		}
	}
}

// TestDecayTableIsDecayPow: the per-Searcher envelope-decay table holds
// DecayPow's own bits for every advance a lane can take, and a
// parameterization whose longest skip outgrows the table keeps none —
// its batched walk (DecayPow called per visit) still answers every query
// as the solo walk does.
func TestDecayTableIsDecayPow(t *testing.T) {
	for _, p := range []Params{{}, {EnvDecay: 0.5}, {Alpha: 0.02, EnvDecay: 0.99}, {OmegaFloor: 0.8 / (maxDecayTable - 1)}} {
		s := NewSearcher(nil, p)
		if s.maxAdv != s.skipFor(0) || len(s.rule.Decay) != s.maxAdv+1 {
			t.Fatalf("%+v: maxAdv %d (skipFor(0) = %d), %d table entries", p, s.maxAdv, s.skipFor(0), len(s.rule.Decay))
		}
		for adv, d := range s.rule.Decay {
			if d != kernel.DecayPow(s.params.EnvDecay, adv) {
				t.Fatalf("%+v: decay[%d] = %x, DecayPow = %x", p, adv, math.Float64bits(d), math.Float64bits(kernel.DecayPow(s.params.EnvDecay, adv)))
			}
		}
	}
	f := newFixture(t, 2)
	s := NewSearcher(f.store, Params{OmegaFloor: 1e-4})
	if s.maxAdv < maxDecayTable || s.rule.Decay != nil {
		t.Fatalf("maxAdv %d should outgrow the table bound and leave no table (%d entries)", s.maxAdv, len(s.rule.Decay))
	}
	inputs := batchInputs(f, 3)
	br, err := s.AlgorithmN(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, input := range inputs {
		solo, err := s.Algorithm1(input)
		if err != nil {
			t.Fatal(err)
		}
		if got := br.Results[i]; !reflect.DeepEqual(got.Matches, solo.Matches) || got.Evaluated != solo.Evaluated {
			t.Fatalf("query %d: the batched walk diverges from the solo walk", i)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Matches: []Match{{Omega: 0.9}, {Omega: 0.8}, {Omega: 1.0}}}
	if got := r.AvgOmega(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("AvgOmega = %g", got)
	}
	if got := r.MinOmega(); got != 0.8 {
		t.Fatalf("MinOmega = %g", got)
	}
	empty := &Result{}
	if empty.AvgOmega() != 0 || empty.MinOmega() != 0 {
		t.Fatal("empty result aggregates should be 0")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkAlgorithm1(b *testing.B) {
	f := newFixture(b, 2)
	s := NewSearcher(f.store, Params{})
	input := f.input(synth.Normal, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Algorithm1(input)
	}
}

func BenchmarkExhaustive(b *testing.B) {
	f := newFixture(b, 2)
	s := NewSearcher(f.store, Params{})
	input := f.input(synth.Normal, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Exhaustive(input)
	}
}
