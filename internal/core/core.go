// Package core implements the EMAP framework itself: the three stages
// of paper Fig. 3 — Signal Acquisition at the edge, Cloud Search over
// the mega-database, and Edge Tracking with anomaly prediction — run
// as a session over a discrete-event simulated clock.
//
// A Session consumes raw EEG one second at a time exactly as the
// deployed system would: sample → 100-tap bandpass → 16-bit quantised
// upload → cloud cross-correlation search → top-100 download →
// per-second area tracking, with new cloud calls issued in the
// background when the tracked set decays (Fig. 9's overlap of edge
// tracking and cloud search). All latencies come from an explicit cost
// model (link serialization times plus per-evaluation compute costs),
// so timing results are machine-independent and reproduce the paper's
// Δ_initial ≈ 3 s and sub-second tracking iterations structurally.
//
// The primary surface is streaming: Session.Start returns a Stream
// that accepts windows via Push and emits one StepReport per window —
// the P_A trace and decision transitions as they happen. Process runs
// a whole recording through a stream and returns the batch Report.
// StartMulti monitors N channels under a K-of-N agreement rule.
//
// Every run is one driver on one worker goroutine: per slot it
// filters and quantises each channel's window, asks each channel's
// track.Controller — the edge decision the distributed device runs
// too — what to do, and plays the answers out on the simulated clock.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"emap/internal/clock"
	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/netsim"
	"emap/internal/search"
	"emap/internal/synth"
	"emap/internal/track"
)

// Config assembles the framework's parameters. Zero values select the
// paper's configuration.
type Config struct {
	// Search configures the cloud stage (Algorithm 1).
	Search search.Params
	// Track configures the edge stage (Algorithm 2).
	Track track.Params
	// Predict configures the anomaly decision rule.
	Predict track.PredictorParams
	// Link is the edge↔cloud communication platform (default LTE).
	Link netsim.Link
	// WindowSeconds is the acquisition slot length (paper: 1 s).
	WindowSeconds float64
	// BaseRate is the sampling frequency (paper: 256 Hz).
	BaseRate float64
	// FilterTaps, LowHz, HighHz define the acquisition bandpass
	// (paper: 100 taps, 11–40 Hz).
	FilterTaps    int
	LowHz, HighHz float64
	// HorizonSeconds is the continuation horizon downloaded per
	// matched signal (default 8 s): it sizes the Fig. 4b payload and
	// bounds how long a set can be tracked before a mandatory cloud
	// refresh.
	HorizonSeconds float64
	// RecallMargin issues the background cloud call this many
	// iterations before the horizon exhausts, so a fresh set arrives
	// just as the old one dies (default 3).
	RecallMargin int
	// WarmupWindows is the number of initial windows consumed
	// without searching, letting the acquisition filter settle
	// (default 1; the first window carries the 100-tap transient).
	WarmupWindows int
	// CloseGrace bounds how long a closing stream keeps trying to
	// deliver an undelivered StepReport to a slow consumer (default
	// 100 ms of wall time; the simulated clock never advances in
	// real time, so this is the one wall-clock knob a stream has).
	CloseGrace time.Duration
	// Channels is the number of concurrently monitored channels for
	// multi-channel runs (Session.StartMulti); default 1. Single
	// streams (Session.Start) always monitor one channel.
	Channels int
	// Agreement is K of the K-of-N cross-channel agreement rule: the
	// alarm raises only while at least K channel predictors concur.
	// Default is a strict majority of Channels; values above
	// Channels are clamped.
	Agreement int
	// Modality labels the signal kind this session monitors ("eeg"
	// default, "ecg" for the heart-rate tier). It selects nothing in
	// core — training data and tenant routing carry the semantics —
	// but it flows into reports and the edge tenant namespace.
	Modality string
	// Cost model (see costs.go) — zero values take defaults.
	Costs CostModel
}

// CostModel assigns simulated durations to compute steps, calibrated
// to the paper's platform (Raspberry Pi edge, i7 cloud). All values
// are per single evaluation/operation.
type CostModel struct {
	// CloudEval is the cloud's cost of one ω evaluation during the
	// MDB search. Default 1.5 µs: a full-size search (≈8000
	// signal-sets at some 250 sliding-window evaluations each ≈ 2M
	// evaluations) then costs ≈ 3 s, reproducing the paper's
	// Δ_CS-dominated ≈3 s initial overhead.
	CloudEval time.Duration
	// EdgeAreaEval is the edge's cost of one area-between-curves
	// comparison. Default 9 ms: tracking 100 signals costs ≈ 900 ms,
	// the paper's §V-C figure, inside the 1 s real-time budget.
	EdgeAreaEval time.Duration
	// EdgeCorrEval is the edge's cost of one re-correlation
	// evaluation. Default 2.28 ms: with the ±8 re-alignment search
	// (17 evaluations/signal) the correlation tracker costs ≈ 4.3×
	// the area tracker — the paper's Fig. 8b ratio.
	EdgeCorrEval time.Duration
	// EdgeFilter is the edge's cost of bandpass-filtering one
	// window (default 4 ms; the paper suggests a hard-wired filter
	// accelerator).
	EdgeFilter time.Duration
}

func (m CostModel) withDefaults() CostModel {
	if m.CloudEval <= 0 {
		m.CloudEval = 1500 * time.Nanosecond
	}
	if m.EdgeAreaEval <= 0 {
		m.EdgeAreaEval = 9 * time.Millisecond
	}
	if m.EdgeCorrEval <= 0 {
		m.EdgeCorrEval = 2280 * time.Microsecond
	}
	if m.EdgeFilter <= 0 {
		m.EdgeFilter = 4 * time.Millisecond
	}
	return m
}

func (c Config) withDefaults() (Config, error) {
	if c.Link.Name == "" {
		lte, err := netsim.ByName("LTE")
		if err != nil {
			return c, err
		}
		c.Link = lte
	}
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 1
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 256
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
	if c.HorizonSeconds <= 0 {
		c.HorizonSeconds = 8
	}
	if c.RecallMargin <= 0 {
		c.RecallMargin = 3
	}
	if c.WarmupWindows <= 0 {
		c.WarmupWindows = 1
	}
	if c.CloseGrace <= 0 {
		c.CloseGrace = defaultCloseGrace
	}
	if c.Channels <= 0 {
		c.Channels = 1
	}
	if c.Agreement <= 0 {
		c.Agreement = c.Channels/2 + 1
	}
	if c.Agreement > c.Channels {
		c.Agreement = c.Channels
	}
	if c.Modality == "" {
		c.Modality = "eeg"
	}
	c.Costs = c.Costs.withDefaults()
	return c, nil
}

// windowLen returns the samples per acquisition slot.
func (c Config) windowLen() int {
	return int(c.WindowSeconds * c.BaseRate)
}

// Session is one patient's monitoring run against a mega-database.
type Session struct {
	cfg      Config
	store    *mdb.Store
	searcher *search.Searcher
	fir      *dsp.FIR

	clk   *clock.Clock
	edge  *clock.Actor
	cloud *clock.Actor

	predictor *track.Predictor

	// alarm drives the close-grace deadline; tests substitute a
	// clock.ManualAlarm to make grace expiry deterministic.
	alarm clock.Alarm

	mu     sync.Mutex
	active bool // a Stream is running
}

// NewSession prepares a session over the given mega-database.
func NewSession(store *mdb.Store, cfg Config) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if store == nil || store.NumSets() == 0 {
		return nil, errors.New("core: mega-database is empty")
	}
	fir, err := dsp.DesignBandpass(cfg.FilterTaps, cfg.LowHz, cfg.HighHz, cfg.BaseRate, dsp.Hamming)
	if err != nil {
		return nil, fmt.Errorf("core: designing acquisition filter: %w", err)
	}
	// The tracker's horizon derives from the downloaded continuation
	// length: HorizonSeconds of samples at one window per iteration.
	tp := cfg.Track
	if tp.HorizonWindows == 0 {
		tp.HorizonWindows = int(cfg.HorizonSeconds / cfg.WindowSeconds)
	}
	cfg.Track = tp
	clk := clock.New()
	return &Session{
		cfg:       cfg,
		store:     store,
		searcher:  search.NewSearcher(store, cfg.Search),
		fir:       fir,
		clk:       clk,
		edge:      clk.Actor("edge"),
		cloud:     clk.Actor("cloud"),
		predictor: track.NewPredictor(cfg.Predict),
		alarm:     clock.WallAlarm{},
	}, nil
}

// Config returns the session's effective configuration.
func (s *Session) Config() Config { return s.cfg }

// Clock exposes the simulated clock (for timeline rendering).
func (s *Session) Clock() *clock.Clock { return s.clk }

// Process runs the full pipeline over a raw recording (at the session
// base rate) and returns the report. maxWindows bounds the run
// (0 = the whole recording). It is a thin wrapper over the streaming
// API: every window goes through Start/Push exactly as a live feed
// would.
func (s *Session) Process(rec *synth.Recording, maxWindows int) (*Report, error) {
	if rec == nil || len(rec.Samples) == 0 {
		return nil, errors.New("core: empty recording")
	}
	if rec.Rate != s.cfg.BaseRate {
		return nil, fmt.Errorf("core: recording rate %g ≠ session rate %g (resample first)", rec.Rate, s.cfg.BaseRate)
	}
	wl := s.cfg.windowLen()
	n := len(rec.Samples) / wl
	if maxWindows > 0 && n > maxWindows {
		n = maxWindows
	}
	if n == 0 {
		return nil, errors.New("core: recording shorter than one window")
	}

	stream, err := s.Start(context.Background())
	if err != nil {
		return nil, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range stream.Reports() {
		}
	}()
	for k := 0; k < n; k++ {
		if err := stream.Push(Window(rec.Samples[k*wl : (k+1)*wl])); err != nil {
			break // Close surfaces the worker's error
		}
	}
	report, err := stream.Close()
	<-drained
	if err != nil {
		return nil, err
	}
	report.Input = rec.ID
	report.Class = rec.Class
	return report, nil
}

// trackCost converts a tracking step into simulated edge time.
func (s *Session) trackCost(st track.StepResult) time.Duration {
	per := s.cfg.Costs.EdgeAreaEval
	if s.cfg.Track.Method == track.CorrMethod {
		per = s.cfg.Costs.EdgeCorrEval
	}
	return time.Duration(st.Evaluations) * per
}
