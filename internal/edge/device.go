package edge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"emap/internal/backoff"
	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
	"emap/internal/track"
)

// ErrDeviceClosed is returned by Push on a closed device.
var ErrDeviceClosed = errors.New("edge: device closed")

// Config parameterises a Device. Zero values select paper defaults.
type Config struct {
	// BaseRate is the sampling frequency (default 256 Hz).
	BaseRate float64
	// WindowLen is the acquisition slot in samples (default 256).
	WindowLen int
	// FilterTaps, LowHz, HighHz define the acquisition bandpass
	// (defaults 100, 11, 40).
	FilterTaps    int
	LowHz, HighHz float64
	// Track configures the local tracker (Algorithm 2 defaults).
	Track track.Params
	// Predict configures the anomaly decision.
	Predict track.PredictorParams
	// RecallMargin triggers a background refresh this many windows
	// before the downloaded horizon runs out (default 2).
	RecallMargin int
	// WarmupWindows lets the filter settle before the first upload
	// (default 1).
	WarmupWindows int
	// CloudTimeout bounds each cloud exchange (default 30 s).
	CloudTimeout time.Duration
	// Refresh paces background-refresh retries while the cloud is
	// unreachable: exponential backoff with jitter, and the
	// consecutive-failure count carries across refresh cycles so
	// retry pressure keeps easing through a long outage. The zero
	// value selects the backoff defaults (100 ms doubling to 10 s,
	// half jittered).
	Refresh backoff.Policy
	// RefreshRetries bounds how many cloud attempts one background
	// refresh cycle may make before giving up (default 5). A cycle
	// that gives up is not the end of retrying: the next slot that
	// still needs a set starts a new cycle against a fresher window.
	RefreshRetries int
	// Tenant routes this device's cloud traffic (searches and
	// ingests) to one tenant store. NewDevice installs it on the
	// client; empty leaves the client's tenant untouched.
	Tenant string
	// Modality labels the signal kind this device monitors ("eeg"
	// default). A non-default modality routes cloud traffic into a
	// modality-suffixed tenant namespace — "<tenant>-<modality>", or
	// the bare modality when Tenant is empty — so a ward's ECG
	// signal-sets share the cloud tier but never mix with its EEG
	// mega-database.
	Modality string
}

// effectiveTenant derives the tenant the device's client routes to:
// the configured tenant, suffixed with the modality namespace when a
// non-default modality is set. Empty means "leave the client alone".
func (c Config) effectiveTenant() (string, error) {
	tenant := c.Tenant
	if c.Modality != "" && c.Modality != "eeg" {
		if tenant == "" {
			tenant = c.Modality
		} else {
			tenant += "-" + c.Modality
		}
	}
	if tenant != "" && !mdb.ValidTenantID(tenant) {
		return "", fmt.Errorf("edge: derived tenant %q is not a valid tenant ID", tenant)
	}
	return tenant, nil
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseRate <= 0 {
		c.BaseRate = 256
	}
	if c.WindowLen <= 0 {
		c.WindowLen = 256
	}
	if c.FilterTaps <= 0 {
		c.FilterTaps = 100
	}
	if c.LowHz <= 0 {
		c.LowHz = 11
	}
	if c.HighHz <= 0 {
		c.HighHz = 40
	}
	if c.RecallMargin <= 0 {
		c.RecallMargin = 2
	}
	if c.WarmupWindows < 0 {
		c.WarmupWindows = 0
	} else if c.WarmupWindows == 0 {
		c.WarmupWindows = 1
	}
	if c.CloudTimeout <= 0 {
		c.CloudTimeout = 30 * time.Second
	}
	if c.RefreshRetries <= 0 {
		c.RefreshRetries = 5
	}
	return c, nil
}

// Status summarises one acquisition slot.
type Status struct {
	// Window is the slot index (0-based).
	Window int
	// Tracking reports whether a correlation set is live.
	Tracking bool
	// PA is the current anomaly probability estimate.
	PA float64
	// Remaining is N(F).
	Remaining int
	// CloudCalled reports that this slot issued a cloud search.
	CloudCalled bool
	// Anomalous is the predictor's current decision.
	Anomalous bool
	// Degraded reports that the device is operating without a fresh,
	// trackable correlation set: cloud exchanges are failing, or the
	// one that finally succeeded landed past its own horizon. Tracking
	// continues on the last downloaded set while refresh retries run
	// in the background; the flag clears when a fresh set is adopted.
	Degraded bool
	// ConsecutiveFailures counts cloud attempts failed since the last
	// successful exchange. It can read 0 while Degraded is still set:
	// the link has recovered and the fresh set is one refresh away.
	ConsecutiveFailures int
	// LastCloudErr is the most recent cloud failure, nil when the
	// last exchange succeeded (even if Degraded has not cleared yet).
	LastCloudErr error
}

// Device is the edge node: it consumes raw samples one second at a
// time and asks its track.Controller — the per-window decision the
// simulation runs too — what to do with each. The device supplies what
// the controller leaves out: the cloud client, the refresh goroutine
// with its backoff, the health counters and the mini-MDB each download
// is materialised into (one record per entry), so the same
// track.Tracker used in-process follows the distributed deployment.
type Device struct {
	cfg       Config
	client    *Client
	stream    *dsp.Stream
	ctrl      *track.Controller
	predictor *track.Predictor

	window     int
	refreshing chan adoptable
	pending    bool      // a refresh cycle is in flight
	lastGood   adoptable // the controller's degraded-mode fallback

	ctx    context.Context // cancelled by Close; bounds background refreshes
	cancel context.CancelFunc
	wg     sync.WaitGroup // in-flight refresh cycles

	// hmu guards the health fields, which the background refresh
	// cycle writes while Push reads them into each Status.
	hmu      sync.Mutex
	closed   bool
	failed   bool  // an attempt failed that the controller has not heard of
	failures int   // consecutive failed cloud attempts
	attempts int64 // total cloud refresh attempts (tests assert boundedness)
	lastErr  error
}

// adoptable is what a refresh cycle hands back to Push: a download, or
// the error the cycle gave up on.
type adoptable struct {
	store   *mdb.Store
	matches []search.Match
	seq     int // the controller's number for the searched window
	err     error
}

// NewDevice returns a device speaking to the given cloud client.
func NewDevice(client *Client, cfg Config) (*Device, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	fir, err := dsp.DesignBandpass(cfg.FilterTaps, cfg.LowHz, cfg.HighHz, cfg.BaseRate, dsp.Hamming)
	if err != nil {
		return nil, fmt.Errorf("edge: designing filter: %w", err)
	}
	tenant, err := cfg.effectiveTenant()
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		client.SetTenant(tenant)
	}
	params := cfg.Track
	if params.WindowLen == 0 {
		params.WindowLen = cfg.WindowLen
	}
	pred := track.NewPredictor(cfg.Predict)
	ctx, cancel := context.WithCancel(context.Background())
	return &Device{
		cfg:        cfg,
		client:     client,
		stream:     fir.NewStream(),
		ctrl:       track.NewController(pred, params, cfg.RecallMargin),
		predictor:  pred,
		refreshing: make(chan adoptable, 1),
		ctx:        ctx,
		cancel:     cancel,
	}, nil
}

// Predictor exposes the accumulated anomaly decision state.
func (d *Device) Predictor() *track.Predictor { return d.predictor }

// Close ends the device's life: it cancels any in-flight background
// refresh and waits for the refresh goroutine to exit, so no cloud
// exchange outlives the device. The client is not closed — the caller
// owns it. Push calls after Close fail with ErrDeviceClosed.
func (d *Device) Close() error {
	d.hmu.Lock()
	if d.closed {
		d.hmu.Unlock()
		return nil
	}
	d.closed = true
	d.hmu.Unlock()
	d.cancel()
	d.wg.Wait()
	return nil
}

// noteCloudFailure records one failed cloud attempt and returns the
// consecutive-failure count (which paces the next backoff sleep).
func (d *Device) noteCloudFailure(err error) int {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	d.attempts++
	d.failures++
	d.failed = true
	d.lastErr = err
	return d.failures
}

// noteCloudSuccess records one successful cloud exchange. The
// controller stays degraded until the downloaded set is adopted.
func (d *Device) noteCloudSuccess() {
	d.hmu.Lock()
	d.attempts++
	d.failures = 0
	d.lastErr = nil
	d.hmu.Unlock()
}

// Attempts returns the total number of cloud refresh attempts made so
// far (successes and failures); resilience tests assert it stays
// bounded during an outage instead of growing with every slot.
func (d *Device) Attempts() int64 {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.attempts
}

// hearFailures tells the controller of the cloud attempts that failed
// since it last heard. It runs on the Push goroutine, the controller's
// only caller.
func (d *Device) hearFailures() {
	d.hmu.Lock()
	failed := d.failed
	d.failed = false
	d.hmu.Unlock()
	if failed {
		d.ctrl.Fail()
	}
}

// fillHealth populates a Status with the device's outage state.
func (d *Device) fillHealth(st *Status) {
	d.hearFailures()
	d.hmu.Lock()
	st.ConsecutiveFailures = d.failures
	st.LastCloudErr = d.lastErr
	d.hmu.Unlock()
	st.Degraded = d.ctrl.Degraded()
}

// PushSecond consumes one acquisition slot with a background context;
// see Push.
func (d *Device) PushSecond(raw []float64) (Status, error) {
	return d.Push(context.Background(), raw)
}

// Push consumes one acquisition slot of raw samples (WindowLen of
// them) and advances the device by one window. ctx bounds any synchronous cloud
// exchange this slot issues (each exchange is additionally capped by
// Config.CloudTimeout).
func (d *Device) Push(ctx context.Context, raw []float64) (st Status, err error) {
	if len(raw) != d.cfg.WindowLen {
		return Status{}, fmt.Errorf("edge: slot must be %d samples, got %d", d.cfg.WindowLen, len(raw))
	}
	d.hmu.Lock()
	closed := d.closed
	d.hmu.Unlock()
	if closed {
		return Status{}, ErrDeviceClosed
	}
	st = Status{Window: d.window}
	filtered := d.stream.NextBlock(raw)
	defer func() { d.window++ }()
	// st is a named return so the deferred fill reaches the caller on
	// every path, error returns included.
	defer d.fillHealth(&st)

	if d.window < d.cfg.WarmupWindows {
		return st, nil
	}

	// Adopt a completed background refresh, once the controller has
	// heard of every attempt that failed before it.
	d.hearFailures()
	select {
	case a := <-d.refreshing:
		d.pending = false
		if a.err != nil {
			d.ctrl.Fail()
		} else {
			d.adopt(a)
		}
	default:
	}

	dec := d.ctrl.Step(filtered, d.pending)
	st.Tracking = dec.Tracked
	st.PA = dec.PA
	st.Remaining = dec.Remaining
	st.Anomalous = dec.Anomalous
	switch {
	case dec.First:
		// The first call is synchronous: nothing to track yet.
		store, matches, err := d.fetch(ctx, filtered, dec.Priority)
		if err != nil {
			d.noteCloudFailure(err)
			return st, err
		}
		d.noteCloudSuccess()
		d.adopt(adoptable{store: store, matches: matches, seq: dec.Seq})
		st.CloudCalled = true
	case dec.Upload:
		// The closed re-check and the Add share the health lock with
		// Close's closed-set, so a racing Close either sees no cycle
		// (and spawns are refused from here on) or waits for this one
		// — never a 0→1 wg.Add concurrent with wg.Wait.
		d.hmu.Lock()
		if !d.closed {
			d.pending = true
			st.CloudCalled = true
			d.wg.Add(1)
			go d.refreshAsync(append([]float64(nil), filtered...), dec.Seq, dec.Priority)
		}
		d.hmu.Unlock()
	}
	return st, nil
}

// adopt hands a download to the controller.
func (d *Device) adopt(a adoptable) {
	d.ctrl.Adopt(track.Set{Store: a.store, Matches: a.matches, Horizon: d.horizon(a.store)}, a.seq)
	lg := d.ctrl.LastGood()
	d.lastGood = adoptable{store: lg.Store, matches: lg.Matches}
}

// Ingest contributes a raw recording to the cloud mega-database of
// this device's tenant: it applies the MDB preprocessing path
// (resample to the base rate, bandpass) locally, quantizes, and pushes
// the result over the wire, where the cloud slices, labels and serves
// it immediately — the paper's "recordings are continuously inserted"
// loop, driven from the edge. It returns the number of signal-sets the
// recording became.
func (d *Device) Ingest(ctx context.Context, raw *synth.Recording) (int, error) {
	rec, err := mdb.Preprocess(raw, mdb.BuildConfig{
		BaseRate:   d.cfg.BaseRate,
		FilterTaps: d.cfg.FilterTaps,
		LowHz:      d.cfg.LowHz,
		HighHz:     d.cfg.HighHz,
	}, nil)
	if err != nil {
		return 0, fmt.Errorf("edge: preprocessing %s: %w", raw.ID, err)
	}
	counts, scale := proto.Quantize(rec.Samples)
	ctx, cancel := d.cloudCtx(ctx)
	defer cancel()
	ack, err := d.client.Ingest(ctx, &proto.Ingest{
		RecordID:  rec.ID,
		Class:     uint8(rec.Class),
		Archetype: uint16(rec.Archetype),
		Onset:     int32(rec.Onset),
		Scale:     scale,
		Samples:   counts,
	})
	if err != nil {
		return 0, err
	}
	return int(ack.Sets), nil
}

// cloudCtx derives the per-exchange context from the caller's, bounded
// by CloudTimeout and by the device's own life: Close cancels every
// exchange, synchronous ones included, so no cloud round-trip outlives
// the device.
func (d *Device) cloudCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(ctx, d.cfg.CloudTimeout)
	stop := context.AfterFunc(d.ctx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// horizon is how many windows past the matched one a mini-MDB's
// longest download holds: the proactive recall margin then fires
// before the set starves.
func (d *Device) horizon(local *mdb.Store) int {
	maxLen := 0
	for _, id := range local.RecordIDs() {
		if rec, ok := local.Record(id); ok && rec.Len() > maxLen {
			maxLen = rec.Len()
		}
	}
	return maxLen/d.cfg.WindowLen - 1
}

// trackParams returns the parameters a download of the given size is
// tracked with.
func (d *Device) trackParams(local *mdb.Store, matches int) track.Params {
	return d.ctrl.ParamsFor(matches, d.horizon(local))
}

// refreshAsync runs one background refresh cycle; a later Push adopts
// the result, mirroring Fig. 9's overlap of tracking and cloud search.
// Failed exchanges are retried inside the cycle with exponential
// backoff and jitter — one goroutine per cycle, never one per slot, so
// an outage cannot pile up attempts. The consecutive-failure count
// paces the backoff and carries across cycles: when this cycle exhausts
// RefreshRetries and a later slot starts a new one, the new cycle
// resumes the eased cadence instead of hammering the link again. The
// device-lifetime context bounds every exchange and sleep, so Close
// promptly cancels an in-flight refresh.
func (d *Device) refreshAsync(window []float64, seq int, priority uint8) {
	defer d.wg.Done()
	var lastErr error
	for i := 0; i < d.cfg.RefreshRetries; i++ {
		if err := d.ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		store, matches, err := d.fetch(d.ctx, window, priority)
		if err == nil {
			d.noteCloudSuccess()
			d.refreshing <- adoptable{store: store, matches: matches, seq: seq}
			return
		}
		lastErr = err
		fails := d.noteCloudFailure(err)
		if err := d.cfg.Refresh.Sleep(d.ctx, fails-1); err != nil {
			break
		}
	}
	d.refreshing <- adoptable{seq: seq, err: lastErr}
}

// fetch round-trips one search and materialises the response into a
// local mini-MDB: one record per entry, one signal-set spanning it.
func (d *Device) fetch(ctx context.Context, window []float64, priority uint8) (*mdb.Store, []search.Match, error) {
	ctx, cancel := d.cloudCtx(ctx)
	defer cancel()
	corrSet, err := d.client.SearchPri(ctx, window, priority)
	if err != nil {
		return nil, nil, err
	}
	store := mdb.NewStore()
	matches := make([]search.Match, 0, len(corrSet.Entries))
	for i, e := range corrSet.Entries {
		if len(e.Samples) < d.cfg.WindowLen {
			continue
		}
		rec := &mdb.Record{
			ID:        fmt.Sprintf("dl-%d-%d", corrSet.Seq, i),
			Class:     synth.ClassFromCode(e.Class),
			Archetype: int(e.Archetype),
			Onset:     -1,
		}
		anomalous := e.Anomalous
		// The counts that arrived are the record: the tracker
		// dequantizes the window it compares, nothing else.
		n, err := store.InsertQuantized(rec, e.Samples, e.Scale, len(e.Samples), func(int) bool { return anomalous })
		if err != nil || n == 0 {
			continue
		}
		matches = append(matches, search.Match{
			SetID: store.NumSets() - 1,
			Omega: float64(e.Omega),
			Beta:  0, // downloaded samples begin at the matched offset
		})
	}
	return store, matches, nil
}
