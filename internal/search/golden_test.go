package search

import (
	"testing"

	"emap/internal/dataset"
	"emap/internal/mdb"
	"emap/internal/synth"
)

// goldenCompareStore runs the equivalence battery over one store
// against the naive reference: exhaustive and skip, as a mixed-length
// batch and query by query, on every route of the walk's step this
// machine runs, everything held to ==.
func goldenCompareStore(t *testing.T, label string, store *mdb.Store, inputs [][]float64) {
	t.Helper()
	for _, exhaustive := range []bool{true, false} {
		mode := label + "/skip"
		if exhaustive {
			mode = label + "/exhaustive"
		}
		ref := refSearch(t, store, Params{}, floatWindows(inputs), exhaustive)
		t.Run(mode, func(t *testing.T) {
			eachRoute(t, func(t *testing.T) {
				s := NewSearcher(store, Params{})
				batch, err := s.runBatch(floatWindows(inputs), exhaustive)
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					solo, err := s.run(window{samples: inputs[i]}, exhaustive)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, mode, ref[i].Result, batch.Results[i])
					assertBitIdentical(t, mode, ref[i].Result, solo)
				}
			})
		})
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

// TestGoldenScalarVsFFTSynthetic: the contract over a store as Build
// leaves it — the naive scalar reference against the lane walk,
// exhaustive and skip — on the standard synthetic fixture.
// TestGoldenQuantVsScalar* hold its snapshot's resident forms to the
// same. (The three golden tests keep the names the suite's floor list
// knows them by; the FFT side of the comparison went with walkDense.)
func TestGoldenScalarVsFFTSynthetic(t *testing.T) {
	f := newFixture(t, 2)
	goldenCompareStore(t, "built", f.store, syntheticInputs(f))
}

// TestGoldenScalarVsFFTDegenerate: constant (zero-variance) stored
// regions must correlate as 0 — never clear δ, never move a skip.
func TestGoldenScalarVsFFTDegenerate(t *testing.T) {
	store, inputs := plateauStore(t)
	goldenCompareStore(t, "inserted", store, inputs)
}

// TestGoldenScalarVsFFTEDFStore: the contract over an EDF-derived
// store.
func TestGoldenScalarVsFFTEDFStore(t *testing.T) {
	store, inputs := edfStore(t)
	goldenCompareStore(t, "built", store, inputs)
}
