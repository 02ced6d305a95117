package track

import (
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
)

// Set is a downloaded signal correlation set: the store its signals
// live in and the matches to follow. Horizon, when positive, is how
// many windows of continuation the download carries; it applies when
// the controller's Params leave HorizonWindows at 0.
type Set struct {
	Store   *mdb.Store
	Matches []search.Match
	Horizon int
}

// Decision is a Controller's answer for one window.
type Decision struct {
	// StepResult is the tracking step; zero unless Tracked.
	StepResult
	// Seq numbers the window among the controller's steps; Adopt takes
	// it back as the window a search ran against.
	Seq int
	// Tracked reports that a correlation set was live and stepped.
	Tracked bool
	// Anomalous is the predictor's verdict after the window.
	Anomalous bool
	// Upload asks the driver to search the cloud with this window;
	// First marks the run's first call, made with nothing to track.
	Upload, First bool
	// Priority is the upload's wire priority: proto.PriAnomaly while
	// the channel is anomalous or degraded, else proto.PriRoutine.
	Priority uint8
}

// Controller is one channel's per-window decision at the edge — paper
// Fig. 3's tracking half with Algorithm 2 and the predictor: when to
// call the cloud, which downloaded set to track, and what P_A the
// predictor sees. It has no clock, no I/O and no lock; a driver feeds
// it windows, the sets that arrive and the failures it meets, from one
// goroutine.
//
// Degraded mode: after a failed cloud attempt, and until a fresh set
// is adopted, a set that runs dry is re-armed from the last good
// download, so the device keeps an estimate through an outage instead
// of going dark.
type Controller struct {
	params   Params
	margin   int
	pred     *Predictor
	tracker  *Tracker
	lastGood Set
	seq      int  // windows stepped
	degraded bool // a cloud attempt failed since the last adoption
	recall   bool // a set landed spent: the next step must recall
}

// NewController returns a controller tracking with params and feeding
// pred. recallMargin asks for a fresh set this many windows before
// the live one's horizon runs out.
func NewController(pred *Predictor, params Params, recallMargin int) *Controller {
	return &Controller{params: params, margin: recallMargin, pred: pred}
}

// ParamsFor returns the parameters a set of n matches with the given
// horizon is tracked with. H is capped at half the set, and at least
// 2: the paper's H presumes a full top-100 download, and a sparser set
// would otherwise ask for a cloud call on every window.
func (c *Controller) ParamsFor(n, horizon int) Params {
	p := c.params
	h := p.TrackThreshold
	if h == 0 {
		h = DefaultParams().TrackThreshold
	}
	p.TrackThreshold = max(min(h, n/2), 2)
	if p.HorizonWindows == 0 && horizon > 0 {
		p.HorizonWindows = horizon
	}
	return p
}

// Step decides one window: it steps the live set against window,
// feeds the predictor while signals remain, and asks for an upload
// when nothing is tracked yet, when the set falls below H, or when its
// horizon has no more than the recall margin left. inFlight reports
// that the driver is still waiting for an earlier upload's set; no
// second upload is asked for meanwhile.
func (c *Controller) Step(window []float64, inFlight bool) Decision {
	d := Decision{Seq: c.seq}
	c.seq++
	if c.tracker == nil {
		d.Upload, d.First = !inFlight, !inFlight
	} else {
		d.StepResult = c.tracker.Step(window)
		d.Tracked = true
		if d.Remaining == 0 && c.degraded && len(c.lastGood.Matches) > 0 {
			// The set ran dry with the cloud unreachable. Re-stepping
			// the stale set would eliminate everything — its alignment
			// to the input was lost with the link — so re-arm it and
			// hold its retrieval-time composition as the estimate. The
			// re-arm repeats each window until a fresh set is adopted.
			c.tracker = NewTracker(c.lastGood.Store, c.lastGood.Matches,
				c.ParamsFor(len(c.lastGood.Matches), c.lastGood.Horizon))
			d.Remaining, d.PA, d.NeedsCloud = c.tracker.Remaining(), c.tracker.PA(), true
		}
		// An empty set carries no information and must not poison the
		// predictor's trajectory.
		if d.Remaining > 0 {
			c.pred.Observe(d.PA)
		}
		left := c.tracker.HorizonLeft()
		d.Upload = !inFlight && (c.recall || d.NeedsCloud || (left >= 0 && left <= c.margin))
	}
	d.Anomalous = c.pred.Anomalous()
	if d.Upload {
		c.recall = false
		d.Priority = proto.PriRoutine
		if d.Anomalous || c.degraded {
			d.Priority = proto.PriAnomaly
		}
	}
	return d
}

// Adopt installs set, searched against window seq (a Decision's Seq),
// as the live tracker and reports whether it did. Tracking resumes at
// the next window, so the set's continuations are read that many
// windows further in. A set whose horizon is already spent is not
// adopted, and the next Step asks for a fresh one. Either way a
// non-empty set becomes degraded mode's fallback; an empty one only
// when there is none yet.
func (c *Controller) Adopt(set Set, seq int) bool {
	if len(set.Matches) > 0 || c.lastGood.Store == nil {
		c.lastGood = set
	}
	p := c.ParamsFor(len(set.Matches), set.Horizon)
	skip := c.seq - seq - 1
	if p.HorizonWindows > 0 && skip >= p.HorizonWindows {
		c.recall = true
		return false
	}
	c.tracker = NewTracker(set.Store, set.Matches, p)
	c.tracker.Skip(skip)
	c.degraded = false
	return true
}

// Fail reports a failed cloud attempt: the controller runs degraded
// until it adopts a fresh set.
func (c *Controller) Fail() { c.degraded = true }

// Degraded reports whether a cloud attempt has failed since the last
// adopted set.
func (c *Controller) Degraded() bool { return c.degraded }

// LastGood returns degraded mode's fallback set.
func (c *Controller) LastGood() Set { return c.lastGood }
