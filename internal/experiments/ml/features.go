// Package ml provides the feature extraction and classical classifiers
// behind the Table I / Fig. 10 state-of-the-art comparison columns:
//
//   - a band-power + waveform feature extractor, the common front-end
//     of EEG seizure predictors;
//   - logistic regression — a stand-in for Samie et al. [13], the
//     resource-constrained IoT seizure predictor the paper compares
//     against in Fig. 10;
//   - k-nearest-neighbours — a stand-in for Zhang et al. [18]
//     (cross-correlation + classification);
//   - a hyperdimensional classifier — a stand-in for Laelaps [7];
//   - a small multilayer perceptron — a stand-in for the cloud deep
//     learning of Hosseini et al. [11].
//
// All models are deliberately laptop-scale: Table I compares accuracy
// *shape* (who predicts what), not training budgets.
package ml

import (
	"math"

	"emap/internal/fft"
)

// NumFeatures is the dimensionality produced by Extract.
const NumFeatures = 9

// Extract computes a fixed EEG feature vector from a window of samples
// (µV at the given rate): five relative band powers, line length,
// variance, zero-crossing rate and peak-to-peak amplitude.
func Extract(window []float64, rate float64) []float64 {
	f := make([]float64, NumFeatures)
	if len(window) < 2 || rate <= 0 {
		return f
	}
	total := fft.BandPower(window, rate, 0.5, rate/2*0.9)
	if total <= 0 {
		total = 1e-12
	}
	bands := [][2]float64{{0.5, 4}, {4, 8}, {8, 13}, {13, 30}, {30, 45}}
	for i, b := range bands {
		f[i] = fft.BandPower(window, rate, b[0], b[1]) / total
	}

	var lineLen, mean float64
	for i, v := range window {
		if i > 0 {
			lineLen += math.Abs(v - window[i-1])
		}
		mean += v
	}
	mean /= float64(len(window))
	var variance float64
	zeroCross := 0
	for i, v := range window {
		d := v - mean
		variance += d * d
		if i > 0 && (window[i-1]-mean)*(d) < 0 {
			zeroCross++
		}
	}
	variance /= float64(len(window))

	min, max := window[0], window[0]
	for _, v := range window {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}

	f[5] = lineLen / float64(len(window))
	f[6] = variance
	f[7] = float64(zeroCross) / float64(len(window))
	f[8] = max - min
	return f
}

// Scaler standardises feature vectors to zero mean and unit variance
// per dimension, fitted on a training set.
type Scaler struct {
	mean, std []float64
}

// FitScaler computes per-dimension statistics from X.
func FitScaler(X [][]float64) *Scaler {
	if len(X) == 0 {
		return &Scaler{}
	}
	d := len(X[0])
	s := &Scaler{mean: make([]float64, d), std: make([]float64, d)}
	for _, x := range X {
		for j := 0; j < d && j < len(x); j++ {
			s.mean[j] += x[j]
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(len(X))
	}
	for _, x := range X {
		for j := 0; j < d && j < len(x); j++ {
			diff := x[j] - s.mean[j]
			s.std[j] += diff * diff
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / float64(len(X)))
		if s.std[j] < 1e-9 {
			s.std[j] = 1
		}
	}
	return s
}

// Apply returns the standardised copy of x.
func (s *Scaler) Apply(x []float64) []float64 {
	if len(s.mean) == 0 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	out := make([]float64, len(x))
	for j := range x {
		if j < len(s.mean) {
			out[j] = (x[j] - s.mean[j]) / s.std[j]
		} else {
			out[j] = x[j]
		}
	}
	return out
}

// ApplyAll standardises every row.
func (s *Scaler) ApplyAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = s.Apply(x)
	}
	return out
}
