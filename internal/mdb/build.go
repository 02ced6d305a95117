package mdb

import (
	"fmt"

	"emap/internal/dsp"
	"emap/internal/synth"
)

// BuildConfig parameterises MDB construction (paper Fig. 3, "Mega-
// Database (MDB) Construction").
type BuildConfig struct {
	// SliceLen is the signal-set length in samples (paper: 1000).
	SliceLen int
	// BaseRate is the target sampling rate in Hz (paper: 256).
	BaseRate float64
	// FilterTaps, LowHz and HighHz define the bandpass applied to
	// every stored signal for consistency with the filtered input
	// (paper: 100 taps, 11–40 Hz).
	FilterTaps    int
	LowHz, HighHz float64
	// PreictalLabelSeconds is the length of the window before a
	// known seizure onset whose slices are labelled anomalous: a
	// slice that *leads into* a seizure is what makes prediction
	// ahead of onset possible. Defaults to 130 s, the length of the preictal ramp.
	PreictalLabelSeconds float64
}

// DefaultBuildConfig returns the paper's construction parameters.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		SliceLen:             1000,
		BaseRate:             256,
		FilterTaps:           100,
		LowHz:                11,
		HighHz:               40,
		PreictalLabelSeconds: 130,
	}
}

func (c BuildConfig) withDefaults() BuildConfig {
	d := DefaultBuildConfig()
	if c.SliceLen <= 0 {
		c.SliceLen = d.SliceLen
	}
	if c.BaseRate <= 0 {
		c.BaseRate = d.BaseRate
	}
	if c.FilterTaps <= 0 {
		c.FilterTaps = d.FilterTaps
	}
	if c.LowHz <= 0 {
		c.LowHz = d.LowHz
	}
	if c.HighHz <= 0 {
		c.HighHz = d.HighHz
	}
	if c.PreictalLabelSeconds <= 0 {
		c.PreictalLabelSeconds = d.PreictalLabelSeconds
	}
	return c
}

// Build constructs a mega-database from raw recordings: each recording
// is resampled to the base rate, bandpass filtered, quantized to int16
// counts (as Insert does), sliced into signal-sets and labelled:
//
//   - normal recordings → all slices normal;
//   - seizure recordings with an annotated onset → slices beginning
//     within PreictalLabelSeconds of the onset, or after it, are
//     anomalous; earlier (interictal) slices are normal;
//   - recordings without onset annotation (encephalopathy, stroke,
//     coarse corpora) → the complete signal is anomalous, matching
//     paper §VI-B: "we have annotated the complete signal as an
//     anomaly".
func Build(recs []*synth.Recording, cfg BuildConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	fir, err := dsp.DesignBandpass(cfg.FilterTaps, cfg.LowHz, cfg.HighHz, cfg.BaseRate, dsp.Hamming)
	if err != nil {
		return nil, fmt.Errorf("mdb: designing bandpass: %w", err)
	}
	store := NewStore()
	// One batched insert publishes the whole corpus as a single epoch
	// and validates it whole: a duplicate ID anywhere rejects the
	// corpus before any recording is stored. (Per-recording Insert
	// calls would cost the same — an insert does not depend on the
	// store's size — but publish len(recs) epochs.) Each recording is
	// quantized as soon as it is processed — the record is Build's own
	// until it is stored — so the corpus is never held as float64.
	items := make([]insertion, 0, len(recs))
	for _, raw := range recs {
		rec, err := Preprocess(raw, cfg, fir)
		if err != nil {
			return nil, err
		}
		counts, scale := quantizeSamples(rec.Samples)
		rec.Samples = nil
		items = append(items, insertion{
			rec:      rec,
			counts:   counts,
			scale:    scale,
			sliceLen: cfg.SliceLen,
			labelFn:  LabelFor(rec, cfg),
		})
	}
	if _, err := store.insertBatch(items); err != nil {
		return nil, err
	}
	return store, nil
}

// Preprocess applies the MDB normalisation path to one raw recording:
// resample to the base rate, then bandpass with the given filter
// (fir may be nil, in which case it is designed from cfg).
func Preprocess(raw *synth.Recording, cfg BuildConfig, fir *dsp.FIR) (*Record, error) {
	cfg = cfg.withDefaults()
	if fir == nil {
		var err error
		fir, err = dsp.DesignBandpass(cfg.FilterTaps, cfg.LowHz, cfg.HighHz, cfg.BaseRate, dsp.Hamming)
		if err != nil {
			return nil, err
		}
	}
	samples := raw.Samples
	onset := raw.Onset
	if raw.Rate != cfg.BaseRate {
		var err error
		samples, err = dsp.Resample(samples, raw.Rate, cfg.BaseRate)
		if err != nil {
			return nil, fmt.Errorf("mdb: resampling %s: %w", raw.ID, err)
		}
		if onset >= 0 {
			onset = int(float64(onset) * cfg.BaseRate / raw.Rate)
		}
	}
	filtered := fir.Apply(samples)
	// Drop the filter's start-up transient so stored windows contain
	// steady-state signal only; shift the onset to match.
	warm := fir.Len()
	if warm >= len(filtered) {
		warm = 0
	}
	filtered = filtered[warm:]
	if onset >= 0 {
		onset -= warm
		if onset < 0 {
			onset = 0
		}
	}
	return &Record{
		ID:        raw.ID,
		Class:     raw.Class,
		Archetype: raw.Archetype,
		Onset:     onset,
		Samples:   filtered,
	}, nil
}

// LabelFor returns the paper's slice-labelling function for a
// processed recording under the given configuration. Callers building
// stores manually (e.g. to inject annotation noise) can substitute
// their own function for selected recordings.
func LabelFor(rec *Record, cfg BuildConfig) func(start int) bool {
	cfg = cfg.withDefaults()
	switch {
	case !rec.Class.Anomalous():
		return func(int) bool { return false }
	case rec.Onset >= 0:
		window := int(cfg.PreictalLabelSeconds * cfg.BaseRate)
		from := rec.Onset - window
		return func(start int) bool { return start >= from }
	default:
		return func(int) bool { return true }
	}
}
