package kernel_test

import (
	"strings"
	"testing"

	"emap/internal/dsp"
	"emap/internal/kernel"
	"emap/internal/mdb"
	"emap/internal/search"
	"emap/internal/synth"
)

// BenchmarkWalkRoutes is internal/search's BenchmarkAlgorithm1 — the
// same store, the same query — once with the walk's step forced onto the
// portable route and once on the route this machine selected, in ns per
// ω evaluation: what the step costs inside a real scan (refills, prefix
// sums, top-K and all) over a store as mdb.Build leaves it. It lives
// here because only this package can force the route.
func BenchmarkWalkRoutes(b *testing.B) {
	g := synth.NewGenerator(synth.Config{Seed: 11, ArchetypesPerClass: 3})
	var recs []*synth.Recording
	for arch := 0; arch < 3; arch++ {
		for i := 0; i < 2; i++ {
			recs = append(recs,
				g.Instance(synth.Normal, arch, synth.InstanceOpts{OffsetSamples: i * 2000, DurSeconds: 30}),
				g.Instance(synth.Seizure, arch, synth.InstanceOpts{OffsetSamples: (synth.OnsetAt-20)*256 + i*1500, DurSeconds: 40}))
		}
	}
	store, err := mdb.Build(recs, mdb.DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	fir, err := dsp.DesignBandpass(100, 11, 40, 256, dsp.Hamming)
	if err != nil {
		b.Fatal(err)
	}
	rec := g.Instance(synth.Normal, 0, synth.InstanceOpts{OffsetSamples: 1800, DurSeconds: 10, NoArtifacts: true})
	input := fir.Apply(rec.Samples)[1024:1280]
	for _, route := range []string{"portable-int16", "vector-int16"} {
		b.Run(route, func(b *testing.B) {
			s := search.NewSearcher(store, search.Params{})
			if strings.HasPrefix(route, "portable") {
				defer kernel.StepPortable()()
			}
			evals := 0
			for i := 0; i < b.N; i++ {
				res, err := s.Algorithm1(input)
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Evaluated
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
		})
	}
}
