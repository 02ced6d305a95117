// Package synth generates synthetic EEG recordings with the anomaly
// morphologies studied by the EMAP paper: seizures, encephalopathy and
// stroke.
//
// The paper builds its mega-database from five public EEG corpora.
// Those corpora are not available to this reproduction, so synth is the
// substitute: a parametric generator producing band-limited EEG-like
// waveforms (delta/theta/alpha/beta rhythms over a 1/f background) plus
// class-specific anomaly signatures.
//
// # Archetypes and redundancy
//
// EMAP's retrieval only works because real EEG corpora are "highly
// redundant" (paper §VI-B): an input window finds many database windows
// with normalized correlation above δ = 0.8. Independent random signals
// would correlate near zero and the framework would never fire. synth
// models this redundancy explicitly: each class owns a pool of
// deterministic archetype waveforms, and every generated recording is a
// crop of one archetype plus instance noise, amplitude jitter and
// artifacts. Two instances of one archetype correlate strongly
// (ρ ≈ 1/(1+ν²) for noise ratio ν); instances of different archetypes
// are nearly orthogonal. The archetype id is recorded so experiments
// can build evaluation inputs that are fresh (never inserted in the
// MDB) yet retrievable.
//
// # Amplitude calibration
//
// Canonical waveforms are scaled so that their 11–40 Hz bandpassed RMS
// is Config.TargetRMS µV (default 7). Under that calibration the
// paper's two similarity thresholds agree: an area-between-curves of
// ≈900 sq.µV over 256 samples corresponds to a normalized correlation
// of ≈0.8 (see Fig. 8a and the derivation in DESIGN.md).
package synth

import (
	"fmt"
	"maps"
	"sync"

	"emap/internal/dsp"
	"emap/internal/rng"
)

// Class identifies the clinical label of a recording.
type Class int

// The four signal classes of the paper: normal EEG plus the three
// evaluated anomalies.
const (
	Normal Class = iota
	Seizure
	Encephalopathy
	Stroke
)

// Classes lists all classes in a stable order.
var Classes = []Class{Normal, Seizure, Encephalopathy, Stroke}

// Anomalies lists only the anomalous classes, in the paper's order
// (anomaly 1, 2, 3).
var Anomalies = []Class{Seizure, Encephalopathy, Stroke}

// String returns the lower-case clinical name of the class.
func (c Class) String() string {
	switch c {
	case Normal:
		return "normal"
	case Seizure:
		return "seizure"
	case Encephalopathy:
		return "encephalopathy"
	case Stroke:
		return "stroke"
	case ECGNormal:
		return "ecg-normal"
	case Arrhythmia:
		return "arrhythmia"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Anomalous reports whether the class is an anomaly of its modality
// (EEG: seizure/encephalopathy/stroke; ECG: arrhythmia).
func (c Class) Anomalous() bool { return c != Normal && c != ECGNormal }

// ClassFromCode converts a wire class code back to a Class, mapping
// unknown codes to Normal. Both protocol endpoints (edge download
// materialisation, cloud ingest) decode through this one mapping.
func ClassFromCode(code uint8) Class {
	c := Class(code)
	for _, known := range AllClasses {
		if c == known {
			return c
		}
	}
	return Normal
}

// BaseRate is the framework's base sampling frequency in Hz (paper:
// 256 Hz, 16-bit).
const BaseRate = 256.0

// Canonical per-class durations in seconds. Seizure recordings carry
// an interictal head, a preictal ramp and an ictal tail so that
// prediction-lead experiments (Fig. 10: 15–120 s before onset) have
// room to crop.
const (
	NormalDur  = 150 // seconds
	SeizureDur = 220 // seconds
	OnsetAt    = 150 // seconds into a seizure canonical where the ictal phase begins
	PreictalAt = 20  // seconds into a seizure canonical where the preictal ramp begins
	OtherDur   = 150 // seconds, encephalopathy and stroke
)

// Recording is a single-channel EEG recording in µV.
type Recording struct {
	// ID uniquely identifies the recording within one generator.
	ID string
	// Class is the clinical label.
	Class Class
	// Archetype is the index of the archetype this recording was
	// drawn from (within its class pool).
	Archetype int
	// Rate is the sampling frequency in Hz.
	Rate float64
	// Samples holds the waveform in µV at Rate.
	Samples []float64
	// Onset is the sample index (at Rate) where the ictal phase
	// begins, or -1 when the recording has no localised onset
	// (normal recordings, and the whole-signal-labelled
	// encephalopathy/stroke recordings, per paper §VI-B).
	Onset int
}

// Seconds returns the duration of the recording in seconds.
func (r *Recording) Seconds() float64 {
	if r.Rate <= 0 {
		return 0
	}
	return float64(len(r.Samples)) / r.Rate
}

// Config parameterises a Generator. The zero value selects the paper
// defaults via NewGenerator.
type Config struct {
	// Seed determines every waveform the generator will ever emit.
	Seed uint64
	// ArchetypesPerClass sizes each class's archetype pool
	// (default 12).
	ArchetypesPerClass int
	// NoiseRatio ν is the per-instance noise level relative to the
	// calibrated in-band RMS (default 0.22). Instance noise has two
	// components: pink broadband noise (realistic but mostly removed
	// by the 11–40 Hz acquisition filter) and band-limited 11–40 Hz
	// noise with RMS ν·TargetRMS, which is what actually
	// decorrelates instances of one archetype after filtering. The
	// default gives a within-archetype correlation of
	// ρ ≈ 1/(1+2ν²) ≈ 0.91 — above the paper’s retrieval threshold
	// δ = 0.8 with the Fig. 11-like spread below it.
	NoiseRatio float64
	// ArtifactRate is the expected number of movement/blink/muscle
	// artifacts per minute of generated signal (default 4).
	ArtifactRate float64
	// TargetRMS is the post-bandpass RMS amplitude, in µV, that
	// canonical waveforms are calibrated to (default 7).
	TargetRMS float64
}

func (c Config) withDefaults() Config {
	if c.ArchetypesPerClass <= 0 {
		c.ArchetypesPerClass = 12
	}
	if c.NoiseRatio <= 0 {
		c.NoiseRatio = 0.22
	}
	if c.ArtifactRate <= 0 {
		c.ArtifactRate = 4
	}
	if c.TargetRMS <= 0 {
		c.TargetRMS = 7
	}
	return c
}

// Generator produces deterministic synthetic EEG. It is safe for
// concurrent use.
type Generator struct {
	cfg    Config
	master *rng.Source

	mu     sync.Mutex
	canon  map[archKey][]float64
	scale  map[archKey]float64
	nextID int
	bp     *dsp.FIR // calibration filter (paper's 100-tap, 11–40 Hz)
	nf     *dsp.FIR // in-band noise shaping filter
}

type archKey struct {
	class Class
	idx   int
}

// NewGenerator returns a generator for the given configuration.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	bp, err := dsp.DesignBandpass(100, 11, 40, BaseRate, dsp.Hamming)
	if err != nil {
		panic("synth: bandpass design failed: " + err.Error()) // static parameters; cannot fail
	}
	nf, err := dsp.DesignBandpass(63, 11, 40, BaseRate, dsp.Hamming)
	if err != nil {
		panic("synth: noise filter design failed: " + err.Error())
	}
	return &Generator{
		cfg:    cfg,
		master: rng.New(cfg.Seed),
		canon:  make(map[archKey][]float64),
		scale:  make(map[archKey]float64),
		bp:     bp,
		nf:     nf,
	}
}

// Clone returns an independent generator in this one's state: it
// draws exactly the recordings this one would draw next. Tests use it
// to build a fixture once and hand each test a fresh generator.
func (g *Generator) Clone() *Generator {
	g.mu.Lock()
	defer g.mu.Unlock()
	master := *g.master
	return &Generator{
		cfg:    g.cfg,
		master: &master,
		canon:  maps.Clone(g.canon),
		scale:  maps.Clone(g.scale),
		nextID: g.nextID,
		bp:     g.bp,
		nf:     g.nf,
	}
}

// Config returns the generator's effective configuration.
func (g *Generator) Config() Config { return g.cfg }

// Archetypes returns the number of archetypes per class.
func (g *Generator) Archetypes() int { return g.cfg.ArchetypesPerClass }

// classDur returns the canonical duration in seconds for a class.
func classDur(c Class) int {
	switch c {
	case Seizure, Arrhythmia:
		return SeizureDur // both anomalies share the onset timeline
	case Normal, ECGNormal:
		return NormalDur
	default:
		return OtherDur
	}
}

// archSource returns the deterministic sub-stream for an archetype.
// It must produce the same stream regardless of call order, so it is
// derived from the seed alone (never from generator state).
func (g *Generator) archSource(k archKey, stream string) *rng.Source {
	return rng.New(g.cfg.Seed).Derive(fmt.Sprintf("%s-arch-%d-%d", stream, k.class, k.idx))
}

// Canonical returns the archetype waveform (µV, 256 Hz) for the class
// and index, generating and caching it on first use. The returned
// slice is shared; callers must not mutate it.
func (g *Generator) Canonical(class Class, idx int) []float64 {
	k := archKey{class, idx % g.cfg.ArchetypesPerClass}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.canon[k]; ok {
		return c
	}
	raw := g.buildCanonical(k)
	// Calibrate: linear filtering commutes with scaling, so scaling
	// the raw waveform fixes the post-bandpass RMS. Seizure
	// recordings are calibrated on the pre-onset region only: the
	// high-amplitude ictal discharge would otherwise dominate the
	// global RMS and deflate the preictal region below the instance
	// noise floor, making preictal windows unretrievable — precisely
	// where prediction needs them.
	filtered := g.bp.Apply(raw)
	measure := filtered[g.bp.Len():] // skip the filter transient
	if k.class == Seizure || k.class == Arrhythmia {
		if end := OnsetAt * int(BaseRate); end > g.bp.Len() && end <= len(filtered) {
			measure = filtered[g.bp.Len():end]
		}
	}
	rms := dsp.RMS(measure)
	scale := 1.0
	if rms > 1e-9 {
		scale = g.cfg.TargetRMS / rms
	}
	dsp.Scale(raw, scale)
	g.canon[k] = raw
	g.scale[k] = scale
	return raw
}

// CanonicalOnset returns the onset sample index of a seizure or
// arrhythmia archetype at the base rate, or -1 for classes without a
// localised onset.
func (g *Generator) CanonicalOnset(class Class) int {
	if class != Seizure && class != Arrhythmia {
		return -1
	}
	return OnsetAt * int(BaseRate)
}

// InstanceOpts controls Instance.
type InstanceOpts struct {
	// OffsetSamples is the crop start within the canonical waveform
	// (at 256 Hz). Negative requests a random offset.
	OffsetSamples int
	// DurSeconds is the crop duration (default 30 s).
	DurSeconds float64
	// Rate is the output sampling rate (default 256 Hz). Other
	// rates are produced by resampling, mimicking corpora recorded
	// at their native frequencies.
	Rate float64
	// NoiseRatio overrides Config.NoiseRatio when positive.
	NoiseRatio float64
	// NoArtifacts suppresses artifact injection.
	NoArtifacts bool
}

func (o InstanceOpts) withDefaults() InstanceOpts {
	if o.DurSeconds <= 0 {
		o.DurSeconds = 30
	}
	if o.Rate <= 0 {
		o.Rate = BaseRate
	}
	return o
}

// Instance draws a fresh recording from the given archetype: a crop of
// the canonical waveform plus amplitude jitter, instance noise and
// artifacts, optionally resampled to a foreign rate.
func (g *Generator) Instance(class Class, arch int, opt InstanceOpts) *Recording {
	opt = opt.withDefaults()
	arch = ((arch % g.cfg.ArchetypesPerClass) + g.cfg.ArchetypesPerClass) % g.cfg.ArchetypesPerClass
	canonical := g.Canonical(class, arch)

	g.mu.Lock()
	id := g.nextID
	g.nextID++
	r := g.master.Derive(fmt.Sprintf("instance-%d", id))
	g.mu.Unlock()

	n := int(opt.DurSeconds * BaseRate)
	if n > len(canonical) {
		n = len(canonical)
	}
	maxOff := len(canonical) - n
	off := opt.OffsetSamples
	if off < 0 {
		off = r.Intn(maxOff + 1)
	} else if off > maxOff {
		off = maxOff
	}

	samples := make([]float64, n)
	copy(samples, canonical[off:off+n])

	// Amplitude jitter: electrode placement and skull impedance vary
	// between sessions.
	dsp.Scale(samples, r.Range(0.9, 1.1))

	// Instance noise, calibrated against the archetype's in-band
	// RMS: a pink broadband floor (realism; removed by the
	// acquisition filter) plus band-limited 11–40 Hz noise that
	// performs the actual in-band decorrelation between instances.
	nr := opt.NoiseRatio
	if nr <= 0 {
		nr = g.cfg.NoiseRatio
	}
	sigma := g.cfg.TargetRMS * nr
	addPinkNoise(r, samples, 1.5*sigma)
	g.addInBandNoise(r, samples, sigma)

	if !opt.NoArtifacts {
		g.injectArtifacts(r, samples)
	}

	onset := -1
	if co := g.CanonicalOnset(class); co >= 0 {
		if co >= off && co < off+n {
			onset = co - off
		}
	}

	rate := BaseRate
	if opt.Rate != BaseRate {
		samples = dsp.MustResample(samples, BaseRate, opt.Rate)
		if onset >= 0 {
			onset = int(float64(onset) * opt.Rate / BaseRate)
		}
		rate = opt.Rate
	}

	return &Recording{
		ID:        fmt.Sprintf("%s-a%02d-i%06d", class, arch, id),
		Class:     class,
		Archetype: arch,
		Rate:      rate,
		Samples:   samples,
		Onset:     onset,
	}
}

// SeizureInput crops a fresh seizure instance so that the recording
// starts leadSeconds before the ictal onset — the workload of the
// Fig. 10 lead-time experiment.
func (g *Generator) SeizureInput(arch int, leadSeconds, durSeconds float64) *Recording {
	onset := g.CanonicalOnset(Seizure)
	off := onset - int(leadSeconds*BaseRate)
	if off < 0 {
		off = 0
	}
	return g.Instance(Seizure, arch, InstanceOpts{OffsetSamples: off, DurSeconds: durSeconds})
}

// addInBandNoise adds 11–40 Hz band-limited noise with the given RMS:
// white noise shaped by the generator's noise filter and rescaled to
// hit the target RMS exactly.
func (g *Generator) addInBandNoise(r *rng.Source, samples []float64, rms float64) {
	if rms <= 0 || len(samples) == 0 {
		return
	}
	white := make([]float64, len(samples))
	for i := range white {
		white[i] = r.NormFloat64()
	}
	shaped := g.nf.Apply(white)
	// Measure steady-state RMS past the filter transient.
	from := g.nf.Len()
	if from >= len(shaped) {
		from = 0
	}
	cur := dsp.RMS(shaped[from:])
	if cur < 1e-12 {
		return
	}
	k := rms / cur
	for i := range samples {
		samples[i] += shaped[i] * k
	}
}

// injectArtifacts overlays movement/blink/muscle artifacts at the
// configured rate.
func (g *Generator) injectArtifacts(r *rng.Source, samples []float64) {
	seconds := float64(len(samples)) / BaseRate
	expected := g.cfg.ArtifactRate * seconds / 60
	count := int(expected)
	if r.Float64() < expected-float64(count) {
		count++
	}
	for i := 0; i < count; i++ {
		at := r.Intn(len(samples))
		switch r.Intn(3) {
		case 0:
			addBlink(r, samples, at)
		case 1:
			addMuscleBurst(r, samples, at)
		default:
			addElectrodePop(r, samples, at)
		}
	}
}
