package ml

import (
	"math"
	"testing"

	"emap/internal/rng"
	"emap/internal/synth"
)

// syntheticProblem builds a separable 2-class feature problem.
func syntheticProblem(seed uint64, n int, gap float64) (X [][]float64, y []int) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		label := i % 2
		x := make([]float64, 6)
		for j := range x {
			centre := 0.0
			if label == 1 && j < 3 {
				centre = gap
			}
			x[j] = r.Norm(centre, 1)
		}
		X = append(X, x)
		y = append(y, label)
	}
	return X, y
}

// eegProblem builds features from real synthesiser output: normal vs
// seizure (ictal) windows.
func eegProblem(t *testing.T, n int) (X [][]float64, y []int) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 99, ArchetypesPerClass: 4})
	onset := g.CanonicalOnset(synth.Seizure)
	for i := 0; i < n; i++ {
		arch := i % 4
		normal := g.Instance(synth.Normal, arch, synth.InstanceOpts{DurSeconds: 4})
		ictal := g.Instance(synth.Seizure, arch, synth.InstanceOpts{
			OffsetSamples: onset + 2560, DurSeconds: 4})
		X = append(X, Extract(normal.Samples, synth.BaseRate))
		y = append(y, 0)
		X = append(X, Extract(ictal.Samples, synth.BaseRate))
		y = append(y, 1)
	}
	return X, y
}

func classifiers() []Classifier {
	return []Classifier{&LogReg{}, &KNN{}, &HDC{}, &MLP{}}
}

func TestExtractShape(t *testing.T) {
	g := synth.NewGenerator(synth.Config{Seed: 1, ArchetypesPerClass: 2})
	rec := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 2})
	f := Extract(rec.Samples, synth.BaseRate)
	if len(f) != NumFeatures {
		t.Fatalf("feature count %d, want %d", len(f), NumFeatures)
	}
	// Relative band powers live in [0, 1] and sum to ≈1 over the
	// covered bands.
	var sum float64
	for i := 0; i < 5; i++ {
		if f[i] < 0 || f[i] > 1.001 {
			t.Fatalf("band power share %d = %g out of range", i, f[i])
		}
		sum += f[i]
	}
	if sum < 0.5 || sum > 1.1 {
		t.Fatalf("band power shares sum to %g", sum)
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %g", i, v)
		}
	}
}

func TestExtractDegenerate(t *testing.T) {
	f := Extract(nil, 256)
	for _, v := range f {
		if v != 0 {
			t.Fatal("empty window should give zero features")
		}
	}
	f = Extract([]float64{1, 2, 3}, 0)
	for _, v := range f {
		if v != 0 {
			t.Fatal("zero rate should give zero features")
		}
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	s := FitScaler(X)
	scaled := s.ApplyAll(X)
	for j := 0; j < 2; j++ {
		var mean float64
		for i := range scaled {
			mean += scaled[i][j]
		}
		if math.Abs(mean/3) > 1e-9 {
			t.Fatalf("scaled mean of column %d = %g", j, mean/3)
		}
	}
	// Constant columns must not divide by zero.
	s2 := FitScaler([][]float64{{7}, {7}})
	out := s2.Apply([]float64{7})
	if math.IsNaN(out[0]) {
		t.Fatal("constant column produced NaN")
	}
	// Empty scaler passes through.
	s3 := FitScaler(nil)
	if got := s3.Apply([]float64{1, 2}); got[0] != 1 || got[1] != 2 {
		t.Fatal("empty scaler should pass through")
	}
}

func TestClassifiersSeparableProblem(t *testing.T) {
	Xtr, ytr := syntheticProblem(1, 200, 3)
	Xte, yte := syntheticProblem(2, 100, 3)
	for _, m := range classifiers() {
		if err := m.Train(Xtr, ytr); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		c := Evaluate(m, Xte, yte)
		if acc := c.Accuracy(); acc < 0.9 {
			t.Errorf("%s accuracy %.2f on separable problem", m.Name(), acc)
		}
	}
}

func TestClassifiersOnEEGFeatures(t *testing.T) {
	X, y := eegProblem(t, 40)
	scaler := FitScaler(X)
	Xs := scaler.ApplyAll(X)
	// Train on the first 60, test on the rest.
	split := 60
	for _, m := range classifiers() {
		if err := m.Train(Xs[:split], y[:split]); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		c := Evaluate(m, Xs[split:], y[split:])
		if acc := c.Accuracy(); acc < 0.8 {
			t.Errorf("%s accuracy %.2f on ictal-vs-normal EEG", m.Name(), acc)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	for _, m := range classifiers() {
		if err := m.Train(nil, nil); err == nil {
			t.Errorf("%s accepted empty training set", m.Name())
		}
		if err := m.Train([][]float64{{1}}, []int{0, 1}); err == nil {
			t.Errorf("%s accepted mismatched labels", m.Name())
		}
	}
}

func TestClassifierNames(t *testing.T) {
	want := map[string]bool{"logreg": true, "knn": true, "hdc": true, "mlp": true}
	for _, m := range classifiers() {
		if !want[m.Name()] {
			t.Errorf("unexpected name %q", m.Name())
		}
	}
}

func TestLogRegScoreMonotone(t *testing.T) {
	X, y := syntheticProblem(3, 200, 3)
	m := &LogReg{}
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	// Score must increase along the learned direction.
	lo := m.Score([]float64{-2, -2, -2, 0, 0, 0})
	hi := m.Score([]float64{5, 5, 5, 0, 0, 0})
	if hi <= lo {
		t.Fatalf("score not monotone: %g vs %g", lo, hi)
	}
}

func TestKNNSmallK(t *testing.T) {
	m := &KNN{K: 100} // larger than the training set
	X := [][]float64{{0}, {0.1}, {10}, {10.1}}
	y := []int{0, 0, 1, 1}
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	_ = m.Predict([]float64{5}) // must not panic
}

func TestHDCDeterminism(t *testing.T) {
	X, y := syntheticProblem(4, 100, 3)
	a, b := &HDC{Seed: 7}, &HDC{Seed: 7}
	if err := a.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{1, 2, 3, 4, 5, 6}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("HDC not deterministic for equal seeds")
	}
}

func TestMLPUntrainedPredict(t *testing.T) {
	m := &MLP{}
	if got := m.Predict([]float64{1, 2}); got != 0 {
		t.Fatalf("untrained MLP predicted %d", got)
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 2 TN, 1 FP, 1 FN.
	for i := 0; i < 3; i++ {
		c.Observe(1, 1)
	}
	c.Observe(0, 0)
	c.Observe(0, 0)
	c.Observe(1, 0)
	c.Observe(0, 1)
	if c.Total() != 7 {
		t.Fatalf("total %d", c.Total())
	}
	if math.Abs(c.Accuracy()-5.0/7) > 1e-12 {
		t.Fatalf("accuracy %g", c.Accuracy())
	}
	if math.Abs(c.Sensitivity()-0.75) > 1e-12 {
		t.Fatalf("sensitivity %g", c.Sensitivity())
	}
	if math.Abs(c.Specificity()-2.0/3) > 1e-12 {
		t.Fatalf("specificity %g", c.Specificity())
	}
	if math.Abs(c.FalsePositiveRate()-1.0/3) > 1e-12 {
		t.Fatalf("FPR %g", c.FalsePositiveRate())
	}
	var empty Confusion
	if empty.Accuracy() != 0 || empty.Sensitivity() != 0 || empty.Specificity() != 0 || empty.FalsePositiveRate() != 0 {
		t.Fatal("empty confusion metrics should be 0")
	}
}

func BenchmarkExtract(b *testing.B) {
	g := synth.NewGenerator(synth.Config{Seed: 1, ArchetypesPerClass: 2})
	rec := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Extract(rec.Samples, synth.BaseRate)
	}
}

func BenchmarkLogRegTrain(b *testing.B) {
	X, y := syntheticProblem(1, 200, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &LogReg{}
		_ = m.Train(X, y)
	}
}
