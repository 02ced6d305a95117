package search_test

// The independent oracle for ω (ROADMAP item 4a, search half). Nothing
// here comes from internal/search or internal/kernel but the calls under
// test: Pearson's r of two windows of counts is formed as an exact
// rational under one root — five integer sums, A = n·Σqc − Σq·Σc,
// D = n·Σx² − (Σx)² on either side in math/big, ω = A/√(D_q·D_c) at 256
// bits — and a float window becomes counts by this file's own spelling
// of the wire quantizer. What it judges:
//
//   - every ω any scan reports is within omegaTol of the exact value at
//     the (set, β) it is reported for;
//   - under Exhaustive the candidates are exactly the offsets whose
//     exact ω clears δ, but for offsets whose exact ω lies within
//     omegaTol of δ, which may fall either way.

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/search"
	"emap/internal/synth"
)

// omegaTol is the documented tolerance of ω over counts (DESIGN.md §11):
// the scan's ω is the exact rational rounded five times — about 3e-16 —
// while n ≤ 2 896; 1e-12 leaves room for the longer windows, whose
// integer products round once each before they are subtracted.
const omegaTol = 1e-12

const prec = 256

// sums are the five integer sums Pearson's r is made of.
type sums struct{ q, qq, c, cc, qc int64 }

func sumsOf(q, c []int16) (s sums) {
	for i, v := range q {
		x, y := int64(v), int64(c[i])
		s.q += x
		s.qq += x * x
		s.c += y
		s.cc += y * y
		s.qc += x * y
	}
	return s
}

// exactOmega returns Pearson's r of q and c at prec bits, or 0 when
// either window is constant (the scan's convention).
func exactOmega(q, c []int16) *big.Float {
	s, n := sumsOf(q, c), big.NewInt(int64(len(q)))
	mul := func(a, b int64) *big.Int { return new(big.Int).Mul(big.NewInt(a), big.NewInt(b)) }
	a := new(big.Int).Sub(new(big.Int).Mul(n, big.NewInt(s.qc)), mul(s.q, s.c))
	dq := new(big.Int).Sub(new(big.Int).Mul(n, big.NewInt(s.qq)), mul(s.q, s.q))
	dc := new(big.Int).Sub(new(big.Int).Mul(n, big.NewInt(s.cc)), mul(s.c, s.c))
	if dq.Sign() == 0 || dc.Sign() == 0 {
		return new(big.Float).SetPrec(prec)
	}
	den := new(big.Float).SetPrec(prec).SetInt(new(big.Int).Mul(dq, dc))
	den.Sqrt(den)
	return new(big.Float).SetPrec(prec).Quo(new(big.Float).SetPrec(prec).SetInt(a), den)
}

// apart returns |x − exact| as a float64.
func apart(x float64, exact *big.Float) float64 {
	d := new(big.Float).SetPrec(prec).Sub(new(big.Float).SetPrec(prec).SetFloat64(x), exact)
	f, _ := d.Abs(d).Float64()
	return f
}

// quantize is the wire quantizer written out: the step is the peak over
// 32 000 narrowed to float32, every sample is divided by it, rounded
// half away from zero and saturated at the rails.
func quantize(samples []float64) []int16 {
	var peak float64
	for _, v := range samples {
		peak = math.Max(peak, math.Abs(v))
	}
	step := float64(float32(peak / 32000))
	if !(step > 0) || math.IsInf(step, 0) {
		step = float64(float32(1.0 / 32000))
	}
	out := make([]int16, len(samples))
	for i, v := range samples {
		r := v / step
		k := math.Trunc(math.Abs(r))
		if math.Abs(r)-k >= 0.5 {
			k++
		}
		switch {
		case r >= 0 && k > math.MaxInt16:
			out[i] = math.MaxInt16
		case r < 0 && k > -math.MinInt16:
			out[i] = math.MinInt16
		case r < 0:
			out[i] = int16(-k)
		default:
			out[i] = int16(k)
		}
	}
	return out
}

// oracleStore is a store and the counts behind it, as the oracle has them.
type oracleStore struct {
	store  *mdb.Store
	counts map[string][]int16
	worst  float64 // the largest |ω − exact| checkMatches has seen
}

// kinds of counts a record is drawn as.
const (
	smooth = iota // a slow oscillation with noise: windows correlate
	uniform
	rail // −32 768 and ±32 767 only
	plateau
	numKinds
)

func drawCounts(r *rand.Rand, kind, length, n int) []int16 {
	c := make([]int16, length)
	phase, period := r.Float64()*7, 5+r.Float64()*9
	for i := range c {
		switch kind {
		case smooth, plateau:
			c[i] = int16(7000*math.Sin(float64(i)/period+phase) + 2500*math.Sin(float64(i)/(period*3.1)) + 400*r.NormFloat64())
		case uniform:
			c[i] = int16(r.Intn(1<<16) - 1<<15)
		case rail:
			c[i] = [...]int16{math.MinInt16, math.MaxInt16, -math.MaxInt16}[r.Intn(3)]
		}
	}
	if kind == plateau {
		// Constant stretches longer than a window: D_c = 0.
		for k := 0; k < 2; k++ {
			at, v := r.Intn(length-n), int16(r.Intn(200)-100)
			for i := at; i < at+n && i < length; i++ {
				c[i] = v
			}
		}
	}
	return c
}

func newOracleStore(t *testing.T, r *rand.Rand, n int) *oracleStore {
	t.Helper()
	os := &oracleStore{store: mdb.NewStore(), counts: map[string][]int16{}}
	slice := 150 + r.Intn(250)
	for kind := 0; kind < numKinds; kind++ {
		id := fmt.Sprintf("r%d", kind)
		c := drawCounts(r, kind, 2*n+2*slice+r.Intn(slice), n)
		os.counts[id] = c
		// The store takes the counts; the oracle keeps its own copy.
		if _, err := os.store.InsertQuantized(&mdb.Record{ID: id}, append([]int16(nil), c...), 0.25, slice, nil); err != nil {
			t.Fatal(err)
		}
	}
	return os
}

// window returns the n counts the scan correlates at offset beta of set,
// or nil when the parent recording ends before the window does.
func (os *oracleStore) window(set *mdb.SignalSet, beta, n int) []int16 {
	c := os.counts[set.RecordID]
	if at := set.Start + beta; at+n <= len(c) {
		return c[at : at+n]
	}
	return nil
}

// checkMatches holds every reported match to the exact ω at its (set, β).
func (os *oracleStore) checkMatches(t *testing.T, label string, q []int16, delta float64, res *search.Result) {
	t.Helper()
	sets := os.store.Sets()
	for _, m := range res.Matches {
		w := os.window(sets[m.SetID], m.Beta, len(q))
		if w == nil || m.Beta < 0 || m.Beta >= sets[m.SetID].Length {
			t.Fatalf("%s: match (set %d, β %d) is not an offset of the set", label, m.SetID, m.Beta)
		}
		d := apart(m.Omega, exactOmega(q, w))
		if d > omegaTol {
			t.Fatalf("%s: ω=%.17g at (set %d, β %d) is %g from the exact value", label, m.Omega, m.SetID, m.Beta, d)
		}
		os.worst = math.Max(os.worst, d)
		if !(m.Omega > delta) {
			t.Fatalf("%s: match with ω=%g does not clear δ=%g", label, m.Omega, delta)
		}
	}
}

// checkExhaustive holds an all-offsets exhaustive result to the oracle's
// own scan of every offset: same evaluations, and the candidate set
// {ω_exact > δ} up to the offsets within omegaTol of δ.
func (os *oracleStore) checkExhaustive(t *testing.T, label string, q []int16, delta float64, res *search.Result) {
	t.Helper()
	reported := map[[2]int]bool{}
	for _, m := range res.Matches {
		reported[[2]int{m.SetID, m.Beta}] = true
	}
	if len(reported) != len(res.Matches) || res.Candidates != len(res.Matches) {
		t.Fatalf("%s: %d matches, %d distinct, %d candidates counted", label, len(res.Matches), len(reported), res.Candidates)
	}
	evaluated, must, may := 0, 0, 0
	for _, set := range os.store.Sets() {
		for beta := 0; beta < set.Length; beta++ {
			w := os.window(set, beta, len(q))
			if w == nil {
				break
			}
			evaluated++
			exact, _ := exactOmega(q, w).Float64()
			switch got := reported[[2]int{set.ID, beta}]; {
			case exact > delta+omegaTol:
				must++
				if !got {
					t.Fatalf("%s: (set %d, β %d) has exact ω=%.17g > δ and is not a candidate", label, set.ID, beta, exact)
				}
			case exact < delta-omegaTol:
				if got {
					t.Fatalf("%s: (set %d, β %d) has exact ω=%.17g < δ and is a candidate", label, set.ID, beta, exact)
				}
			default:
				may++
			}
		}
	}
	if res.Evaluated != evaluated {
		t.Fatalf("%s: %d evaluations, the store has %d offsets", label, res.Evaluated, evaluated)
	}
	if len(res.Matches) < must || len(res.Matches) > must+may {
		t.Fatalf("%s: %d candidates, the oracle has %d (+%d within the tolerance of δ)", label, len(res.Matches), must, may)
	}
}

// TestOracleOmega: random quantized stores × random windows at every
// window length the kernel treats differently — below a vector block, at
// one, past one, the scan's own 256 and its neighbours, 1 000, and 3 000
// (past the length to which every integer product is exact) — uploaded
// as counts and handed over as floats: cut from the store with noise (so
// there are matches), the same riding a DC offset, uniform, all-rail and
// constant. Algorithm 1, lone and batched, has every reported ω held to
// the exact value; the exhaustive baseline has its whole candidate set
// held to the oracle's. On every route of the walk's step this machine
// runs.
func TestOracleOmega(t *testing.T) { search.EachRoute(t, oracleOmega) }

func oracleOmega(t *testing.T) {
	const delta = 0.3
	matches, candidates, worst := 0, 0, 0.0
	for _, n := range []int{1, 15, 16, 17, 255, 256, 257, 1000, 3000} {
		r := rand.New(rand.NewSource(int64(n)))
		os := newOracleStore(t, r, n)
		total := 0
		for _, set := range os.store.Sets() {
			total += set.Length
		}
		skip := search.NewSearcher(os.store, search.Params{Delta: delta, Workers: 2})
		dense := search.NewSearcher(os.store, search.Params{Delta: delta, AllOffsets: true, TopK: total, Workers: 2})

		src := os.counts["r0"]
		cut := func(noise float64, dc int) []int16 {
			at, q := r.Intn(len(src)-n), make([]int16, n)
			for i := range q {
				q[i] = int16(float64(src[at+i])/2+noise*r.NormFloat64()) + int16(dc)
			}
			return q
		}
		queries := []struct {
			name string
			q    []int16
		}{
			{"cut", cut(300, 0)},
			{"dc", cut(300, 12000)},
			{"negative", cut(300, -14000)},
			{"uniform", drawCounts(r, uniform, n, n)},
			{"rail", drawCounts(r, rail, n, n)},
			{"constant", make([]int16, n)},
		}
		var names []string
		var uploads []search.Counts
		var floats [][]float64
		for _, query := range queries {
			q, label := query.q, fmt.Sprintf("n=%d %s", n, query.name)
			flat := exactOmega(q, q).Sign() == 0

			// As uploaded counts, whatever step they ride on.
			up := search.Counts{Samples: q, Scale: float32(0.01 + r.Float64())}
			res, err := skip.Algorithm1Counts(up)
			if err != nil {
				t.Fatal(err)
			}
			if flat && (len(res.Matches) != 0 || res.Evaluated != 0) {
				t.Fatalf("%s: a constant window was scanned: %d matches, %d evaluations", label, len(res.Matches), res.Evaluated)
			}
			os.checkMatches(t, label+"/upload", q, delta, res)
			matches += len(res.Matches)

			// As a float window: the scan quantizes it, the oracle too.
			fw := make([]float64, n)
			for i, v := range q {
				fw[i] = float64(v)*0.37 + 0.05*r.NormFloat64()
			}
			fq := quantize(fw)
			if res, err = skip.Algorithm1(fw); err != nil {
				t.Fatal(err)
			}
			os.checkMatches(t, label+"/float", fq, delta, res)
			matches += len(res.Matches)

			if res, err = dense.Exhaustive(fw); err != nil {
				t.Fatal(err)
			}
			if exactOmega(fq, fq).Sign() != 0 {
				os.checkMatches(t, label+"/exhaustive", fq, delta, res)
				os.checkExhaustive(t, label+"/exhaustive", fq, delta, res)
				candidates += len(res.Matches)
			}
			names, uploads, floats = append(names, label), append(uploads, up), append(floats, fw)
		}

		// The same windows as batches: lanes share a query, sets are held
		// resident, nothing else may change.
		batch, err := skip.AlgorithmNCounts(uploads)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range batch.Results {
			os.checkMatches(t, names[i]+"/upload batch", uploads[i].Samples, delta, res)
		}
		if batch, err = skip.AlgorithmN(floats); err != nil {
			t.Fatal(err)
		}
		for i, res := range batch.Results {
			os.checkMatches(t, names[i]+"/float batch", quantize(floats[i]), delta, res)
		}
		if batch, err = dense.ExhaustiveN(floats); err != nil {
			t.Fatal(err)
		}
		for i, res := range batch.Results {
			if fq := quantize(floats[i]); exactOmega(fq, fq).Sign() != 0 {
				os.checkExhaustive(t, names[i]+"/exhaustive batch", fq, delta, res)
			}
		}
		worst = math.Max(worst, os.worst)
	}
	t.Logf("%d skip-walk matches and %d exhaustive candidates held to the exact ω; the farthest is %.3g from it", matches, candidates, worst)
	if matches < 100 || candidates < 1000 {
		t.Fatalf("only %d matches and %d candidates — the comparison is near-vacuous", matches, candidates)
	}
}

// TestOracleOmegaBuildStore: the paper's own loop, held to the same
// oracle. The store is what emap.BuildMDB leaves — mdb.Build over raw
// recordings, which must hold exactly the counts this file's quantizer
// makes of the processed samples — and the windows are shaped as a
// Session makes them: raw one-second slots through the stateful
// acquisition bandpass, handed to the search as floats and as the counts
// a stream carries. Every reported ω, skip and exhaustive, is within
// omegaTol of the exact rational over the counts. On every route.
func TestOracleOmegaBuildStore(t *testing.T) { search.EachRoute(t, oracleOmegaBuildStore) }

func oracleOmegaBuildStore(t *testing.T) {
	const delta, n = 0.8, 256
	g := synth.NewGenerator(synth.Config{Seed: 11, ArchetypesPerClass: 2})
	var raws []*synth.Recording
	for arch := 0; arch < 2; arch++ {
		for i := 0; i < 3; i++ { // staggered crops: redundancy is what gives a window matches
			raws = append(raws,
				g.Instance(synth.Normal, arch, synth.InstanceOpts{OffsetSamples: i * 2000, DurSeconds: 30}),
				g.Instance(synth.Seizure, arch, synth.InstanceOpts{OffsetSamples: (synth.OnsetAt-20)*256 + i*1500, DurSeconds: 40}))
		}
	}
	cfg := mdb.DefaultBuildConfig()
	store, err := mdb.Build(raws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	os := &oracleStore{store: store, counts: map[string][]int16{}}
	for _, raw := range raws {
		proc, err := mdb.Preprocess(raw, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		os.counts[raw.ID] = quantize(proc.Samples)
		rec, _ := store.Record(raw.ID)
		if rec.Samples != nil || !slices.Equal(rec.Quant().Counts, os.counts[raw.ID]) {
			t.Fatalf("record %q: Build does not hold the quantizer's counts of the processed samples (and nothing else)", raw.ID)
		}
	}
	total := 0
	for _, set := range store.Sets() {
		total += set.Length
	}
	skip := search.NewSearcher(store, search.Params{Delta: delta})
	dense := search.NewSearcher(store, search.Params{Delta: delta, AllOffsets: true, TopK: total})
	fir, err := dsp.DesignBandpass(cfg.FilterTaps, cfg.LowHz, cfg.HighHz, cfg.BaseRate, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	matches, candidates := 0, 0
	for _, class := range []synth.Class{synth.Normal, synth.Seizure} {
		opts := synth.InstanceOpts{OffsetSamples: 1800, DurSeconds: 8, NoArtifacts: true}
		if class == synth.Seizure {
			opts.OffsetSamples = (synth.OnsetAt-20)*256 + 1800
		}
		input := g.Instance(class, 0, opts)
		stream := fir.NewStream()
		for k := 0; (k+1)*n <= len(input.Samples); k++ {
			fw := stream.NextBlock(input.Samples[k*n : (k+1)*n])
			if k == 0 {
				continue // the filter's transient: a Session's warm-up window
			}
			fq, label := quantize(fw), fmt.Sprintf("%v window %d", class, k)
			res, err := skip.Algorithm1(fw)
			if err != nil {
				t.Fatal(err)
			}
			os.checkMatches(t, label+"/float", fq, delta, res)
			matches += len(res.Matches)
			if res, err = skip.Algorithm1Counts(search.Counts{Samples: fq, Scale: 1}); err != nil {
				t.Fatal(err)
			}
			os.checkMatches(t, label+"/counts", fq, delta, res)
			if k != 2 {
				continue
			}
			if res, err = dense.Exhaustive(fw); err != nil {
				t.Fatal(err)
			}
			os.checkMatches(t, label+"/exhaustive", fq, delta, res)
			os.checkExhaustive(t, label+"/exhaustive", fq, delta, res)
			candidates += len(res.Matches)
		}
	}
	t.Logf("%d skip-walk matches and %d exhaustive candidates over a Build store held to the exact ω; the farthest is %.3g from it", matches, candidates, os.worst)
	if matches < 20 || candidates < 20 {
		t.Fatalf("only %d matches and %d candidates — the comparison is near-vacuous", matches, candidates)
	}
}
