package experiments

import (
	"fmt"
	"math"
	"time"

	"emap/internal/dsp"
	"emap/internal/search"
	"emap/internal/synth"
	"emap/internal/track"
)

// Fig8aResult reproduces Fig. 8a: the number of matches produced by
// the cross-correlation criterion (ω > δ) and by the area-between-
// curves criterion (A < δ_A) over the same windows, showing that
// δ_A ≈ 900 sq. units is the operating point equivalent to δ = 0.8.
type Fig8aResult struct {
	Deltas     []float64
	CorrCounts []int
	Areas      []float64
	AreaCounts []int
	// EquivalentArea is the δ_A whose match count is closest to
	// δ = 0.8's count.
	EquivalentArea float64
}

// Fig8Opts parameterises both Fig. 8 experiments.
type Fig8Opts struct {
	Env EnvConfig
	// Deltas sweeps the correlation threshold (default paper axis).
	Deltas []float64
	// Areas sweeps the area threshold (default paper axis).
	Areas []float64
	// MaxSets bounds the scanned subset for the exhaustive pass
	// (default 600 sets).
	MaxSets int
	// TrackCounts for Fig. 8b (default paper axis).
	TrackCounts []int
	// Repeats per measurement for Fig. 8b timing (default 20).
	Repeats int
}

func (o Fig8Opts) withDefaults() Fig8Opts {
	if len(o.Deltas) == 0 {
		o.Deltas = []float64{0.7, 0.8, 0.9, 0.95, 0.97}
	}
	if len(o.Areas) == 0 {
		o.Areas = []float64{400, 600, 800, 900, 1000, 1200}
	}
	if o.MaxSets <= 0 {
		o.MaxSets = 600
	}
	if len(o.TrackCounts) == 0 {
		o.TrackCounts = []int{50, 100, 150, 200, 300, 400}
	}
	if o.Repeats <= 0 {
		o.Repeats = 20
	}
	return o
}

// Fig8a sweeps both similarity thresholds over identical windows.
func Fig8a(opts Fig8Opts) (*Fig8aResult, error) {
	opts = opts.withDefaults()
	env, err := NewEnv(opts.Env)
	if err != nil {
		return nil, err
	}
	// The subset keeps the scan affordable; the prefix of the set list
	// is normal-dominated, so the probe input is a normal window that
	// those sets can actually match.
	store := env.Store.SubsetSets(opts.MaxSets)
	input := env.Windows(env.Input(synth.Normal, 0, 0, 12, 0))[2]
	zq := dsp.ZNormalize(input)

	result := &Fig8aResult{
		Deltas:     opts.Deltas,
		Areas:      opts.Areas,
		CorrCounts: make([]int, len(opts.Deltas)),
		AreaCounts: make([]int, len(opts.Areas)),
	}
	// One exhaustive pass computing both similarities per offset, over
	// each set's stretch of its recording dequantized into one buffer.
	snap := store.Snapshot()
	var buf []float64
	for _, set := range snap.Sets() {
		rec, ok := snap.Record(set.RecordID)
		if !ok {
			continue
		}
		maxOff := set.Length - 1
		if set.Start+maxOff+len(input) > rec.Len() {
			maxOff = rec.Len() - len(input) - set.Start
		}
		if maxOff < 0 {
			continue
		}
		span, _ := snap.WindowInto(&buf, set, 0, maxOff+len(input))
		stats := dsp.NewSlidingStats(span)
		for beta := 0; beta <= maxOff; beta++ {
			omega := stats.CorrAt(zq, beta)
			for i, d := range opts.Deltas {
				if omega > d {
					result.CorrCounts[i]++
				}
			}
			win := span[beta : beta+len(input)]
			area := dsp.AreaBetween(input, win)
			for i, a := range opts.Areas {
				if area < a {
					result.AreaCounts[i]++
				}
			}
		}
	}

	// Locate the area threshold equivalent to δ = 0.8.
	corr08 := 0
	for i, d := range opts.Deltas {
		if math.Abs(d-0.8) < 1e-9 {
			corr08 = result.CorrCounts[i]
		}
	}
	best, bestDiff := 0.0, math.MaxFloat64
	for i, a := range opts.Areas {
		diff := math.Abs(float64(result.AreaCounts[i] - corr08))
		if diff < bestDiff {
			best, bestDiff = a, diff
		}
	}
	result.EquivalentArea = best
	return result, nil
}

// Table renders Fig. 8a.
func (r *Fig8aResult) Table() *Table {
	t := &Table{
		Title:   "Fig. 8a — Matches under cross-correlation vs area-between-curves thresholds",
		Caption: fmt.Sprintf("paper: δ_A ≈ 900 equivalent to δ = 0.8; measured equivalent δ_A = %.0f", r.EquivalentArea),
		Headers: []string{"criterion", "threshold", "matches"},
	}
	for i, d := range r.Deltas {
		t.AddRow("cross-correlation", f2(d), fmt.Sprint(r.CorrCounts[i]))
	}
	for i, a := range r.Areas {
		t.AddRow("area-between-curves", fmt.Sprintf("%.0f", a), fmt.Sprint(r.AreaCounts[i]))
	}
	return t
}

// Fig8bPoint is one tracked-set-size sample.
type Fig8bPoint struct {
	Tracked int
	AreaMs  float64
	CorrMs  float64
	Ratio   float64
}

// Fig8bResult reproduces Fig. 8b: per-iteration tracking time of the
// area method vs the re-correlation method for growing tracked-set
// sizes (paper: ≈4.3× reduction).
type Fig8bResult struct {
	Points []Fig8bPoint
}

// Fig8b measures both trackers.
func Fig8b(opts Fig8Opts) (*Fig8bResult, error) {
	opts = opts.withDefaults()
	env, err := NewEnv(opts.Env)
	if err != nil {
		return nil, err
	}
	next := env.Windows(env.Input(synth.Normal, 0, 0, 12, 0))[3]

	// Build a large candidate list: every signal-set at offset 0.
	sets := env.Store.Sets()
	result := &Fig8bResult{}
	for _, count := range opts.TrackCounts {
		if count > len(sets) {
			count = len(sets)
		}
		matches := make([]search.Match, count)
		for i := 0; i < count; i++ {
			matches[i] = search.Match{SetID: sets[i].ID, Omega: 1, Beta: 0}
		}
		areaMs := timeTracker(env, matches, track.Params{AreaThreshold: math.MaxFloat64}, next, opts.Repeats)
		corrMs := timeTracker(env, matches, track.Params{Method: track.CorrMethod, CorrDelta: -2}, next, opts.Repeats)
		p := Fig8bPoint{Tracked: count, AreaMs: areaMs, CorrMs: corrMs}
		if areaMs > 0 {
			p.Ratio = corrMs / areaMs
		}
		result.Points = append(result.Points, p)
		if count == len(sets) {
			break
		}
	}
	return result, nil
}

// timeTracker measures the mean wall time of one tracking step.
func timeTracker(env *Env, matches []search.Match, params track.Params, window []float64, repeats int) float64 {
	var total time.Duration
	for r := 0; r < repeats; r++ {
		tr := track.NewTracker(env.Store, matches, params)
		start := time.Now()
		tr.Step(window)
		total += time.Since(start)
	}
	return float64(total) / float64(repeats) / float64(time.Millisecond)
}

// Table renders Fig. 8b.
func (r *Fig8bResult) Table() *Table {
	t := &Table{
		Title:   "Fig. 8b — Per-iteration tracking time: re-correlation vs area-between-curves",
		Caption: "paper: area method ≈4.3× faster",
		Headers: []string{"signals tracked", "area [ms]", "re-correlation [ms]", "ratio"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Tracked), f3(p.AreaMs), f3(p.CorrMs), fmt.Sprintf("%.1fx", p.Ratio))
	}
	return t
}

// MeanRatio returns the average corr/area time ratio.
func (r *Fig8bResult) MeanRatio() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range r.Points {
		sum += p.Ratio
	}
	return sum / float64(len(r.Points))
}
