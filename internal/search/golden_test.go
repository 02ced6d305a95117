package search

import (
	"math"
	"testing"

	"emap/internal/dataset"
	"emap/internal/mdb"
	"emap/internal/synth"
)

// assertSelectionEquivalent enforces the float-store correctness
// contract: the match SELECTION (set IDs, betas, top-K membership, in
// order) must be identical to the naive reference and every ω must agree
// within 1e-9.
func assertSelectionEquivalent(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if len(got.Matches) != len(ref.Matches) {
		t.Fatalf("%s: %d matches, reference has %d", label, len(got.Matches), len(ref.Matches))
	}
	for i := range ref.Matches {
		r, g := ref.Matches[i], got.Matches[i]
		if g.SetID != r.SetID || g.Beta != r.Beta {
			t.Fatalf("%s: match %d is (set %d, β %d), reference (set %d, β %d)",
				label, i, g.SetID, g.Beta, r.SetID, r.Beta)
		}
		if d := math.Abs(g.Omega - r.Omega); d > 1e-9 {
			t.Fatalf("%s: match %d ω diverges by %g (got %g, reference %g)", label, i, d, g.Omega, r.Omega)
		}
	}
}

// assertCountersEqual additionally pins the cost counters — valid
// whenever the two sides visit exactly the same offsets (exhaustive
// scans; a float skip trajectory may round differently at the 1e-9
// scale, so only selection is pinned there).
func assertCountersEqual(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.Evaluated != ref.Evaluated || got.Candidates != ref.Candidates {
		t.Fatalf("%s: counters (%d eval, %d cand) diverge from the reference (%d, %d)",
			label, got.Evaluated, got.Candidates, ref.Evaluated, ref.Candidates)
	}
}

// goldenCompareStore runs the equivalence battery over one store
// against the naive reference: exhaustive and skip, as a mixed-length
// batch and query by query. Float records are held to identical
// selection, ω within 1e-9 and (exhaustive) equal counters; with exact
// set — a store whose records all have counts, on whatever tier —
// everything is held to ==.
func goldenCompareStore(t *testing.T, label string, store *mdb.Store, inputs [][]float64, exact bool) {
	t.Helper()
	s := NewSearcher(store, Params{})
	for _, exhaustive := range []bool{true, false} {
		mode := label + "/skip"
		if exhaustive {
			mode = label + "/exhaustive"
		}
		ref := refSearch(t, store, Params{}, floatWindows(inputs), exhaustive)
		batch, err := s.runBatch(floatWindows(inputs), exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			solo, err := s.run(window{samples: inputs[i]}, exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Result{batch.Results[i], solo} {
				switch {
				case exact:
					assertBitIdentical(t, mode, ref[i].Result, got)
				case exhaustive:
					assertSelectionEquivalent(t, mode, ref[i].Result, got)
					assertCountersEqual(t, mode, ref[i].Result, got)
				default:
					assertSelectionEquivalent(t, mode, ref[i].Result, got)
				}
			}
		}
	}
}

// syntheticInputs is the standard fixture's battery: a mixed-length
// batch, so two length groups are exercised in one scan.
func syntheticInputs(f *fixture) [][]float64 {
	long := f.input(synth.Seizure, 0)
	return [][]float64{
		f.input(synth.Normal, 0),
		long,
		long[:128], // second length group
		f.input(synth.Normal, 2),
	}
}

// plateauStore holds one recording with a constant plateau spanning
// several slices: every window inside is degenerate, windows straddling
// the edges are near-degenerate.
func plateauStore(t *testing.T) (*mdb.Store, [][]float64) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 23, ArchetypesPerClass: 1})
	live := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 12})
	samples := make([]float64, 0, 5000)
	samples = append(samples, live.Samples[:1500]...)
	for i := 0; i < 2200; i++ {
		samples = append(samples, 42.5)
	}
	samples = append(samples, live.Samples[1500:2800]...)
	store := mdb.NewStore()
	if _, err := store.Insert(&mdb.Record{ID: "plateau", Samples: samples}, 500, nil); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 1)
	return store, [][]float64{f.input(synth.Normal, 0), f.input(synth.Normal, 0)[:100]}
}

// edfStore holds recordings round-tripped through the EDF-style
// container (16-bit quantization and all), the ingest path real
// deployments use.
func edfStore(t *testing.T) (*mdb.Store, [][]float64) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 31, ArchetypesPerClass: 2})
	var recs []*synth.Recording
	for arch := 0; arch < 2; arch++ {
		recs = append(recs,
			g.Instance(synth.Normal, arch, synth.InstanceOpts{DurSeconds: 25}),
			g.Instance(synth.Seizure, arch, synth.InstanceOpts{
				OffsetSamples: (synth.OnsetAt - 15) * 256, DurSeconds: 30}),
		)
	}
	dir := t.TempDir()
	if _, err := dataset.Export(dir, recs); err != nil {
		t.Fatal(err)
	}
	imported, err := dataset.Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != len(recs) {
		t.Fatalf("imported %d recordings, exported %d", len(imported), len(recs))
	}
	store, err := mdb.Build(imported, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 1)
	return store, [][]float64{f.input(synth.Normal, 0), f.input(synth.Seizure, 1)}
}

// TestGoldenScalarVsFFTSynthetic: the float-store contract — the naive
// scalar reference against the lane walk, exhaustive and skip — over the
// standard synthetic fixture. (The three golden tests keep the names the
// suite's floor list knows them by; the FFT side of the comparison went
// with walkDense.)
func TestGoldenScalarVsFFTSynthetic(t *testing.T) {
	f := newFixture(t, 2)
	goldenCompareStore(t, "float", f.store, syntheticInputs(f), false)
}

// TestGoldenScalarVsFFTDegenerate: constant (zero-variance) stored
// regions must correlate as 0 — never clear δ, never move a skip.
func TestGoldenScalarVsFFTDegenerate(t *testing.T) {
	store, inputs := plateauStore(t)
	goldenCompareStore(t, "float", store, inputs, false)
}

// TestGoldenScalarVsFFTEDFStore: the contract over an EDF-derived
// store.
func TestGoldenScalarVsFFTEDFStore(t *testing.T) {
	store, inputs := edfStore(t)
	goldenCompareStore(t, "float", store, inputs, false)
}
