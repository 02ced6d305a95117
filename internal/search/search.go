// Package search implements the paper's cloud-side signal
// cross-correlation search: Algorithm 1 with its exponential sliding
// window (skip β = α·ω⁻¹), plus the exhaustive baseline it is compared
// against in Figs. 7 and 11.
//
// # Skip-window interpretation
//
// The paper advances the offset by α·ω⁻¹ with α = 0.004. Read
// literally in samples, any ω > 0.004 would advance less than one
// sample. We therefore read the skip as a scaled jump
//
//	advance = clamp(round(α·SkipScale/ω), 1, MaxAdvance)
//
// with ω floored at OmegaFloor (the paper's "if ω < 0 then ω = 0"
// would otherwise divide by zero). Low correlation → long jumps, high
// correlation → sample-by-sample scanning, exactly the behaviour of
// Fig. 6, and the defaults land the measured speedup over exhaustive
// search in the paper's ≈6.8× band (Fig. 7b).
//
// # Batched multi-query search
//
// Algorithm1 answers one query; AlgorithmN answers a whole batch in a
// single pass over the mega-database. Both — and Exhaustive, the
// baseline — run through the same core (batch.go) and the same walker
// (kernelwalk.go): eight signal-sets are in flight at a time, each in
// its own lane, and a query walks them in lockstep — its own
// exponential-sliding-window trajectory in every set, stepped four lanes
// at a time by internal/kernel's Walk (window sums, dot, ω, envelope and
// skip in one routine, in vector registers where the platform has them),
// which hands back only candidates and finished sets. The baseline is
// the same walk under a rule that always advances by one. A batch holds
// a run of sets resident and walks it query by query, so the stored side
// of a pass (the prefix sums of its window sums) is built once however
// many queries walk it, and queries whose counts are identical are
// deduplicated into one scan. N concurrent queries therefore cost one
// pass of memory bandwidth per signal-set, not N — the cloud tier's
// scan-once-serve-many lever (see internal/cloud's batching collector).
//
// # One ω
//
// Every record is int16 counts, and is correlated over them, read in
// place — warm heap or cold memory map — against the query's own counts:
// an upload's as the edge sent them, a float caller's quantized once per
// scan by the wire's quantizer. Every sum is an exact integer and ω is
// five rounded float operations after them (kernel.Walk), with the
// record's scale cancelled out, so it does not depend on the platform,
// the tier or the walk that asked.
package search

import (
	"errors"
	"math"
	"time"

	"emap/internal/kernel"
	"emap/internal/mdb"
)

// Params configures the cloud search. Zero values select the paper's
// defaults (see DefaultParams).
type Params struct {
	// Alpha is the step-size α of Algorithm 1 (paper preset: 0.004,
	// chosen in Fig. 7a).
	Alpha float64
	// Delta is the cross-correlation threshold δ above which an
	// offset is a candidate match (paper: 0.8).
	Delta float64
	// TopK is the size of the returned signal correlation set T
	// (paper: 100).
	TopK int
	// SkipScale converts α/ω into samples (default 200; see the
	// package comment).
	SkipScale float64
	// OmegaFloor bounds ω from below in the skip computation so that
	// anti-correlated windows take the maximum jump instead of
	// dividing by zero (default 0.05, i.e. a maximum jump of
	// α·SkipScale/0.05 = 16 samples at the default α — wide enough to
	// skip dissimilar stretches ≈6–8× faster than exhaustive search,
	// narrow enough not to leap over a correlation peak, whose
	// attraction basin for 11–40 Hz content is ≈±4 samples).
	OmegaFloor float64
	// Workers bounds the parallel shard scanners. 0 (the default) means
	// GOMAXPROCS(0), read at each scan: the Ps this process may run on
	// right now — what cloud.Config.Workers defaults from — which a CPU
	// quota or a pinned GOMAXPROCS puts below NumCPU.
	Workers int
	// AllOffsets retains every offset of a signal-set that clears δ
	// as its own candidate. The default (false) keeps only the best
	// offset per signal-set, which keeps the top-100 diverse — the
	// behaviour the paper reports for its retrieved sets.
	AllOffsets bool
	// EnvDecay is the per-sample decay of the |ω| envelope used by
	// the skip rule (default 0.86). Band-limited correlation
	// oscillates through zero inside an alignment envelope, so the
	// skip is driven by a decaying maximum of recent |ω| rather than
	// the instantaneous value: the window keeps fine-stepping across
	// a peak's zero crossings but accelerates once the envelope has
	// genuinely died away.
	EnvDecay float64
	// PaperSliceScan restricts each signal-set's scan to
	// β < Length(S) − Length(I) exactly as Algorithm 1 is printed
	// (744 offsets per 1000-sample set, Fig. 5). The default (false)
	// scans every offset of the slice, letting the trailing windows
	// run into the parent recording via the store's view semantics:
	// the printed loop leaves the last Length(I)−1 offsets of every
	// slice permanently unsearchable, a dead zone that the paper's
	// redundant corpora mask but a precise reproduction should not
	// inherit.
	PaperSliceScan bool
}

// DefaultParams returns the paper's search configuration.
func DefaultParams() Params {
	return Params{
		Alpha:      0.004,
		Delta:      0.8,
		TopK:       100,
		SkipScale:  200,
		OmegaFloor: 0.05,
		EnvDecay:   0.86,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Alpha <= 0 {
		p.Alpha = d.Alpha
	}
	if p.Delta == 0 {
		p.Delta = d.Delta
	}
	if p.TopK <= 0 {
		p.TopK = d.TopK
	}
	if p.SkipScale <= 0 {
		p.SkipScale = d.SkipScale
	}
	if p.OmegaFloor <= 0 {
		p.OmegaFloor = d.OmegaFloor
	}
	if p.EnvDecay <= 0 || p.EnvDecay >= 1 {
		p.EnvDecay = d.EnvDecay
	}
	if p.Workers < 0 {
		p.Workers = 0
	}
	return p
}

// Result is the outcome of one cloud search.
type Result struct {
	// Matches is the signal correlation set T, descending by ω,
	// at most TopK entries.
	Matches []Match
	// Evaluated counts ω evaluations performed — the cost metric
	// behind the Fig. 7 exploration-time comparisons.
	Evaluated int
	// Candidates counts offsets that cleared δ before top-K
	// truncation (the "number of matches" of Fig. 7a / Fig. 8a).
	Candidates int
	// ProfileSets is always 0: bench/layers.go, frozen, still reads it.
	ProfileSets int
	// SetsScanned is the number of signal-sets visited.
	SetsScanned int
	// Elapsed is the wall-clock search duration.
	Elapsed time.Duration
}

// AvgOmega returns the mean ω of the retained matches (the Fig. 7a /
// Fig. 11 quality metric), or 0 when empty.
func (r *Result) AvgOmega() float64 {
	if len(r.Matches) == 0 {
		return 0
	}
	var sum float64
	for _, m := range r.Matches {
		sum += m.Omega
	}
	return sum / float64(len(r.Matches))
}

// MinOmega returns the smallest retained ω, or 0 when empty.
func (r *Result) MinOmega() float64 {
	if len(r.Matches) == 0 {
		return 0
	}
	min := r.Matches[0].Omega
	for _, m := range r.Matches[1:] {
		if m.Omega < min {
			min = m.Omega
		}
	}
	return min
}

// Searcher runs cloud searches against one mega-database.
type Searcher struct {
	store  *mdb.Store
	params Params
	// Hoisted out of the per-evaluation path, in the form the step kernel
	// takes them: rule.SkipNum is α·SkipScale, the numerator of the skip
	// rule; maxAdv is skipFor(0), the longest skip any lane can take (the
	// floor envelope); rule.Decay[adv] is kernel.DecayPow(EnvDecay, adv)
	// for every adv ≤ maxAdv — built BY DecayPow, so a lookup is the
	// call's bits — and nil when maxAdv would need more than
	// maxDecayTable entries (the kernel's portable step then calls
	// DecayPow, and its vector step stands aside). unit is the exhaustive
	// baseline's rule: the same δ with a zero numerator, which advances
	// every lane by one sample whatever its envelope.
	rule, unit kernel.SkipRule
	maxAdv     int
}

// maxDecayTable bounds the envelope-decay table; parameter settings
// whose maximum skip exceeds it (pathologically small OmegaFloor) get no
// table.
const maxDecayTable = 4096

// NewSearcher returns a Searcher over store with the given parameters
// (zero-valued fields take paper defaults).
func NewSearcher(store *mdb.Store, params Params) *Searcher {
	params = params.withDefaults()
	s := &Searcher{store: store, params: params, rule: kernel.SkipRule{
		Delta:     params.Delta,
		Floor:     params.OmegaFloor,
		SkipNum:   params.Alpha * params.SkipScale,
		DecayBase: params.EnvDecay,
	}}
	s.maxAdv = s.skipFor(0)
	if s.maxAdv+1 <= maxDecayTable {
		s.rule.Decay = make([]float64, s.maxAdv+1)
		for adv := range s.rule.Decay {
			s.rule.Decay[adv] = kernel.DecayPow(params.EnvDecay, adv)
		}
	}
	s.unit = kernel.SkipRule{Delta: params.Delta, Floor: params.OmegaFloor, DecayBase: params.EnvDecay,
		Decay: []float64{1, params.EnvDecay}}
	return s
}

// Params returns the effective search parameters.
func (s *Searcher) Params() Params { return s.params }

// Store returns the underlying mega-database.
func (s *Searcher) Store() *mdb.Store { return s.store }

// ErrShortInput is returned when the query is empty or longer than the
// signal-sets being searched.
var ErrShortInput = errors.New("search: input window empty or longer than signal-sets")

// Counts is an input window as an edge uploads it: 16-bit counts and
// the µV one count stands for (proto.Upload's Samples and Scale).
type Counts struct {
	Samples []int16
	Scale   float32
}

// Algorithm1 runs the paper's signal cross-correlation search for the
// (already bandpass-filtered) one-second input window.
func (s *Searcher) Algorithm1(input []float64) (*Result, error) {
	return s.run(window{samples: input}, false)
}

// Algorithm1Counts is Algorithm1 for a window that is already counts —
// an edge's upload, a stream's quantized window: the records are
// correlated against c.Samples as sent.
func (s *Searcher) Algorithm1Counts(c Counts) (*Result, error) {
	return s.run(window{counts: c.Samples, scale: c.Scale}, false)
}

// Exhaustive runs the stride-1 exhaustive search baseline over every
// offset of every signal-set (Fig. 5).
func (s *Searcher) Exhaustive(input []float64) (*Result, error) {
	return s.run(window{samples: input}, true)
}

// run serves the single-query entry points through the shared batch
// core (see batch.go): a one-element batch degenerates to exactly the
// pre-batch scan — same trajectories, same counters, same matches.
func (s *Searcher) run(input window, exhaustive bool) (*Result, error) {
	br, err := s.runBatch([]window{input}, exhaustive)
	if err != nil {
		return nil, err
	}
	return br.Results[0], nil
}

// skipFor computes Algorithm 1's exponential sliding-window advance
// for the current |ω| envelope: β += clamp(α·SkipScale/max(env, floor)).
//
// The envelope (rather than the instantaneous, signed ω) drives the
// skip because band-limited EEG correlation *oscillates* around an
// alignment peak: at a ≈23 Hz centre frequency, offsets a few samples
// off a perfect match are strongly anti-correlated and the profile
// crosses zero immediately beside the summit. A rule keyed on raw ω
// takes its longest jumps exactly there and leaps over the peak; the
// decaying envelope keeps the scan fine anywhere evidence of alignment
// has been seen recently, which is the behaviour Fig. 6 describes.
//
// The scan's own copy of the rule is the step kernel's (kernel.Walk:
// the same expression, four lanes at a time); this one states it,
// sizes the decay table and serves the reference walks of the tests. It
// rounds the quotient
// x = α·SkipScale/env as int(x+0.5) rather than math.Round(x): x is
// positive, and for 0.5 ≤ x < 2⁵¹ the sum is exact or rounds within an
// integer's interval, so the two agree (TestSkipRoundingMatchesRound).
// Below 0.5 both give 0 — except the float just under 0.5, where x+0.5
// rounds up to 1 — and every such advance is clamped to 1 anyway.
func (s *Searcher) skipFor(env float64) int {
	return max(int(s.rule.SkipNum/max(math.Abs(env), s.params.OmegaFloor)+0.5), 1)
}
