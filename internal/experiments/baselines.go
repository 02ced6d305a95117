package experiments

import (
	"fmt"

	"emap/internal/experiments/ml"
	"emap/internal/synth"
)

// BaselineSet bundles the trained state-of-the-art stand-ins used in
// the Fig. 10 / Table I comparison columns. Each model maps to one of
// the paper's references:
//
//	logreg → Samie et al. [13]   (IoT seizure prediction)
//	mlp    → Hosseini et al. [11] (cloud deep learning, prediction)
//	hdc    → Burrello et al. [7]  (Laelaps, detection)
//	knn    → Zhang et al. [18]    (cross-correlation + classification)
//
// All are seizure-specific, exactly as Table I marks them N.A. for
// encephalopathy and stroke.
type BaselineSet struct {
	scaler *ml.Scaler
	models map[string]ml.Classifier
}

// baselineWindow is the analysis window the baselines consume: 4 s of
// samples.
const baselineWindow = 4 * 256

// TrainBaselines fits all baselines on fresh generator data: class 1 =
// preictal seizure windows (15–120 s before onset), class 0 = normal
// windows. perArch controls the training-set size per archetype.
func TrainBaselines(env *Env, perArch int) (*BaselineSet, error) {
	if perArch <= 0 {
		perArch = 6
	}
	var X [][]float64
	var y []int
	onset := env.Gen.CanonicalOnset(synth.Seizure)
	for arch := 0; arch < env.Cfg.Archetypes; arch++ {
		for i := 0; i < perArch; i++ {
			lead := 15 + (i*105)/max(perArch-1, 1) // 15..120 s before onset
			pre := env.Gen.Instance(synth.Seizure, arch, synth.InstanceOpts{
				OffsetSamples: onset - lead*256, DurSeconds: 4})
			X = append(X, ml.Extract(pre.Samples, synth.BaseRate))
			y = append(y, 1)

			norm := env.Gen.Instance(synth.Normal, arch, synth.InstanceOpts{
				OffsetSamples: 1500 + i*2200, DurSeconds: 4})
			X = append(X, ml.Extract(norm.Samples, synth.BaseRate))
			y = append(y, 0)
		}
	}
	scaler := ml.FitScaler(X)
	Xs := scaler.ApplyAll(X)
	set := &BaselineSet{
		scaler: scaler,
		models: map[string]ml.Classifier{
			"logreg [13]": &ml.LogReg{},
			"mlp [11]":    &ml.MLP{},
			"hdc [7]":     &ml.HDC{},
			"knn [18]":    &ml.KNN{},
		},
	}
	for name, m := range set.models {
		if err := m.Train(Xs, y); err != nil {
			return nil, fmt.Errorf("experiments: training %s: %w", name, err)
		}
	}
	return set, nil
}

// Names returns the baseline names in a stable order.
func (b *BaselineSet) Names() []string {
	return []string{"logreg [13]", "mlp [11]", "hdc [7]", "knn [18]"}
}

// Predict classifies a recording: features from its first 4 s window.
// The first window is the honest comparison point: EMAP also begins
// deciding from the start of the stream, and for short-lead seizure
// inputs the *final* window would already be ictal — detection, not
// prediction.
func (b *BaselineSet) Predict(name string, rec *synth.Recording) (int, error) {
	m, ok := b.models[name]
	if !ok {
		return 0, fmt.Errorf("experiments: unknown baseline %q", name)
	}
	samples := rec.Samples
	if len(samples) > baselineWindow {
		samples = samples[:baselineWindow]
	}
	x := b.scaler.Apply(ml.Extract(samples, rec.Rate))
	return m.Predict(x), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
