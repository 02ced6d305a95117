// Package track implements the paper's edge-tracking stage
// (Algorithm 2): following the signal correlation set T against each
// subsequent one-second input window with the lightweight
// area-between-curves similarity, eliminating dissimilar signals,
// estimating the anomaly probability P_A = N(AS)/N(F) (Eq. 5), and
// requesting a new cloud search when the filtered set shrinks below
// the tracking threshold H.
//
// It also implements the re-correlation baseline tracker the paper
// compares against in Fig. 8(b): re-evaluating normalized
// cross-correlation per tracked signal (with a small re-alignment
// search) instead of the area metric, which is what makes the area
// method's ≈4.3× advantage measurable.
package track

import (
	"time"

	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/search"
)

// Method selects the per-signal similarity used during tracking.
type Method int

const (
	// AreaMethod is the paper's lightweight area-between-curves
	// tracker (Algorithm 2).
	AreaMethod Method = iota
	// CorrMethod is the Fig. 8(b) baseline: re-evaluating the
	// normalized cross-correlation with a ±CorrRadius re-alignment
	// search per tracked signal.
	CorrMethod
)

// Params configures a Tracker. Zero values select paper defaults.
type Params struct {
	// AreaThreshold is δ_A, the area above which a tracked signal is
	// eliminated (paper: ≈900 sq. units, equivalent to δ ≈ 0.8 per
	// Fig. 8a).
	AreaThreshold float64
	// TrackThreshold is H: when fewer signals remain, the edge
	// requests a fresh cloud search (the paper never states H;
	// default 20).
	TrackThreshold int
	// WindowLen is the per-iteration input window length in samples
	// (paper: 256 = one second at 256 Hz).
	WindowLen int
	// Method selects the tracking similarity (default AreaMethod).
	Method Method
	// CorrDelta is the ω threshold used by CorrMethod (paper: the
	// cloud δ, 0.8).
	CorrDelta float64
	// CorrRadius is CorrMethod's re-alignment search radius in
	// samples (default 8: evaluate offsets β±8 and keep the best;
	// values ≤ 0 select the default). The radius covers half of
	// Algorithm 1's maximum skip jump, the alignment uncertainty a
	// faithful re-correlation must absorb; it is what makes the
	// baseline ≈4.3× costlier than the area method (Fig. 8b).
	CorrRadius int
	// HorizonWindows bounds how many iterations a signal may be
	// tracked before it expires (0 = unlimited). In the distributed
	// deployment the edge only holds the downloaded continuation
	// horizon of each signal; this models that bound in-process and
	// produces the paper's Fig. 9 cadence of a cloud call every few
	// iterations.
	HorizonWindows int
}

// DefaultParams returns the paper's tracking configuration.
func DefaultParams() Params {
	return Params{
		AreaThreshold:  900,
		TrackThreshold: 20,
		WindowLen:      256,
		Method:         AreaMethod,
		CorrDelta:      0.8,
		CorrRadius:     8,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.AreaThreshold <= 0 {
		p.AreaThreshold = d.AreaThreshold
	}
	if p.TrackThreshold <= 0 {
		p.TrackThreshold = d.TrackThreshold
	}
	if p.WindowLen <= 0 {
		p.WindowLen = d.WindowLen
	}
	if p.CorrDelta <= 0 {
		p.CorrDelta = d.CorrDelta
	}
	if p.CorrRadius <= 0 {
		p.CorrRadius = d.CorrRadius
	}
	return p
}

// Tracked is one followed signal: the paper's W = [S, ω, β] plus
// bookkeeping.
type Tracked struct {
	// Set is the signal-set retrieved by the cloud search.
	Set *mdb.SignalSet
	// Omega is the retrieval correlation from the cloud.
	Omega float64
	// Beta is the matched offset within the slice at retrieval time.
	Beta int
	// LastArea is the most recent area measurement (AreaMethod).
	LastArea float64
	// LastOmega is the most recent re-correlation (CorrMethod).
	LastOmega float64
	// Alive reports whether the signal is still being tracked.
	Alive bool
	// Expired reports that tracking ran off the end of the parent
	// recording (dropped without similarity judgement).
	Expired bool
}

// StepResult summarises one tracking iteration.
type StepResult struct {
	// Iteration counts completed tracking steps (1-based).
	Iteration int
	// Remaining is N(F): signals still tracked after elimination.
	Remaining int
	// Eliminated is how many signals this step removed for
	// dissimilarity.
	Eliminated int
	// Expired is how many signals this step dropped because their
	// recordings ended.
	Expired int
	// AnomalousRemaining is N(AS): remaining signals whose slice is
	// labelled anomalous.
	AnomalousRemaining int
	// PA is the anomaly probability N(AS)/N(F) (Eq. 5); 0 when
	// nothing remains.
	PA float64
	// NeedsCloud reports N(F) < H: the edge should request a new
	// signal correlation set.
	NeedsCloud bool
	// Evaluations counts similarity evaluations performed.
	Evaluations int
	// Elapsed is the wall-clock duration of the step.
	Elapsed time.Duration
}

// Tracker follows a signal correlation set at the edge.
type Tracker struct {
	store   *mdb.Store
	params  Params
	tracked []*Tracked
	iter    int
	// scratch is where a step dequantizes the stretch of a tracked
	// signal it compares: one buffer for every signal and every step
	// (the re-correlation baseline's first step grows it by its radius).
	scratch []float64
}

// NewTracker starts tracking the matches of a cloud search result
// against the given store.
func NewTracker(store *mdb.Store, matches []search.Match, params Params) *Tracker {
	params = params.withDefaults()
	sets := store.Sets()
	t := &Tracker{
		store:   store,
		params:  params,
		tracked: make([]*Tracked, 0, len(matches)),
		scratch: make([]float64, params.WindowLen),
	}
	for _, m := range matches {
		if m.SetID < 0 || m.SetID >= len(sets) {
			continue
		}
		t.tracked = append(t.tracked, &Tracked{
			Set:   sets[m.SetID],
			Omega: m.Omega,
			Beta:  m.Beta,
			Alive: true,
		})
	}
	return t
}

// Params returns the effective tracking parameters.
func (t *Tracker) Params() Params { return t.params }

// Iteration returns the number of completed tracking steps.
func (t *Tracker) Iteration() int { return t.iter }

// Skip advances the iteration counter by n without evaluating
// anything: the signal correlation set was retrieved against window N
// but tracking begins at window N+n (the search and download completed
// while the edge kept sampling), so continuations must be read n
// windows further in.
func (t *Tracker) Skip(n int) {
	if n > 0 {
		t.iter += n
	}
}

// HorizonLeft returns how many more iterations tracking can run before
// the horizon expires every signal, or -1 when unlimited.
func (t *Tracker) HorizonLeft() int {
	if t.params.HorizonWindows <= 0 {
		return -1
	}
	left := t.params.HorizonWindows - t.iter
	if left < 0 {
		left = 0
	}
	return left
}

// Tracked returns the tracked signals (alive and dead). The slice is
// shared; callers must not mutate it.
func (t *Tracker) Tracked() []*Tracked { return t.tracked }

// Remaining returns N(F), the current number of alive signals.
func (t *Tracker) Remaining() int {
	n := 0
	for _, w := range t.tracked {
		if w.Alive {
			n++
		}
	}
	return n
}

// PA returns the current anomaly probability N(AS)/N(F) (Eq. 5).
func (t *Tracker) PA() float64 {
	alive, anom := 0, 0
	for _, w := range t.tracked {
		if w.Alive {
			alive++
			if w.Set.Anomalous {
				anom++
			}
		}
	}
	if alive == 0 {
		return 0
	}
	return float64(anom) / float64(alive)
}

// Step runs one tracking iteration against the next one-second input
// window I_{N+1} (already bandpass filtered, WindowLen samples): each
// alive signal's recording is advanced by one window and compared;
// signals whose similarity fails the threshold are eliminated.
func (t *Tracker) Step(input []float64) StepResult {
	start := time.Now()
	t.iter++
	res := StepResult{Iteration: t.iter}

	var zq []float64
	if t.params.Method == CorrMethod {
		zq = make([]float64, len(input))
		dsp.ZNormalizeTo(zq, input)
	}

	advance := t.iter * t.params.WindowLen
	pastHorizon := t.params.HorizonWindows > 0 && t.iter > t.params.HorizonWindows
	for _, w := range t.tracked {
		if !w.Alive {
			continue
		}
		if pastHorizon {
			w.Alive = false
			w.Expired = true
			res.Expired++
			continue
		}
		switch t.params.Method {
		case CorrMethod:
			t.stepCorr(w, zq, advance, &res)
		default:
			t.stepArea(w, input, advance, &res)
		}
	}

	alive, anom := 0, 0
	for _, w := range t.tracked {
		if w.Alive {
			alive++
			if w.Set.Anomalous {
				anom++
			}
		}
	}
	res.Remaining = alive
	res.AnomalousRemaining = anom
	if alive > 0 {
		res.PA = float64(anom) / float64(alive)
	}
	res.NeedsCloud = alive < t.params.TrackThreshold
	res.Elapsed = time.Since(start)
	return res
}

// stepArea applies Algorithm 2's area-between-curves test to one
// tracked signal.
func (t *Tracker) stepArea(w *Tracked, input []float64, advance int, res *StepResult) {
	win, ok := t.store.Snapshot().WindowInto(&t.scratch, w.Set, w.Beta+advance, t.params.WindowLen)
	if !ok {
		w.Alive = false
		w.Expired = true
		res.Expired++
		return
	}
	res.Evaluations++
	area := dsp.AreaBetweenCapped(input, win, t.params.AreaThreshold)
	w.LastArea = area
	if area > t.params.AreaThreshold {
		w.Alive = false
		res.Eliminated++
	}
}

// stepCorr applies the Fig. 8(b) baseline: re-evaluate ω at β±radius
// and keep the best alignment. The stretch of the recording those
// windows cover is dequantized once, into the tracker's buffer.
func (t *Tracker) stepCorr(w *Tracked, zq []float64, advance int, res *StepResult) {
	snap := t.store.Snapshot()
	// The first and last offsets to try, relative to the slice start and
	// clipped to the recording; the span runs from the first window's
	// head to the last one's tail.
	first, n := max(w.Beta+advance-t.params.CorrRadius, -w.Set.Start), -1
	if rec, ok := snap.Record(w.Set.RecordID); ok {
		last := min(w.Beta+advance+t.params.CorrRadius, rec.Len()-len(zq)-w.Set.Start)
		n = last - first + len(zq)
	}
	span, ok := snap.WindowInto(&t.scratch, w.Set, first, n)
	if !ok || len(span) < len(zq) {
		w.Alive = false
		w.Expired = true
		res.Expired++
		return
	}
	stats := dsp.NewSlidingStats(span)
	best, bestShift := -2.0, 0
	for off := 0; off <= stats.MaxOffset(len(zq)); off++ {
		res.Evaluations++
		if omega := stats.CorrAt(zq, off); omega > best {
			best, bestShift = omega, first+off-w.Beta-advance
		}
	}
	w.LastOmega = best
	if best <= t.params.CorrDelta {
		w.Alive = false
		res.Eliminated++
		return
	}
	// Lock in the drift correction for subsequent iterations.
	w.Beta += bestShift
}
