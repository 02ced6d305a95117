package ml

import (
	"errors"
	"math"
	"sort"

	"emap/internal/rng"
)

// Classifier is a binary classifier over feature vectors (labels 0/1).
type Classifier interface {
	// Name identifies the model in reports.
	Name() string
	// Train fits the model; len(X) == len(y) ≥ 1 required.
	Train(X [][]float64, y []int) error
	// Predict returns the predicted label for x.
	Predict(x []float64) int
}

func checkTrainingSet(X [][]float64, y []int) error {
	if len(X) == 0 || len(X) != len(y) {
		return errors.New("ml: training set empty or mismatched")
	}
	return nil
}

// LogReg is L2-regularised logistic regression trained by full-batch
// gradient descent — the stand-in for the paper's IoT seizure
// predictor baseline [13].
type LogReg struct {
	// Epochs, LearnRate and L2 control training (defaults 400,
	// 0.1, 1e-3).
	Epochs    int
	LearnRate float64
	L2        float64

	w []float64
	b float64
}

// Name implements Classifier.
func (m *LogReg) Name() string { return "logreg" }

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Train implements Classifier.
func (m *LogReg) Train(X [][]float64, y []int) error {
	if err := checkTrainingSet(X, y); err != nil {
		return err
	}
	if m.Epochs <= 0 {
		m.Epochs = 400
	}
	if m.LearnRate <= 0 {
		m.LearnRate = 0.1
	}
	if m.L2 <= 0 {
		m.L2 = 1e-3
	}
	d := len(X[0])
	m.w = make([]float64, d)
	m.b = 0
	n := float64(len(X))
	gw := make([]float64, d)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		for i, x := range X {
			z := m.b
			for j := 0; j < d && j < len(x); j++ {
				z += m.w[j] * x[j]
			}
			e := sigmoid(z) - float64(y[i])
			for j := 0; j < d && j < len(x); j++ {
				gw[j] += e * x[j]
			}
			gb += e
		}
		for j := range m.w {
			m.w[j] -= m.LearnRate * (gw[j]/n + m.L2*m.w[j])
		}
		m.b -= m.LearnRate * gb / n
	}
	return nil
}

// Score returns the predicted probability of class 1.
func (m *LogReg) Score(x []float64) float64 {
	z := m.b
	for j := 0; j < len(m.w) && j < len(x); j++ {
		z += m.w[j] * x[j]
	}
	return sigmoid(z)
}

// Predict implements Classifier.
func (m *LogReg) Predict(x []float64) int {
	if m.Score(x) >= 0.5 {
		return 1
	}
	return 0
}

// KNN is a k-nearest-neighbours classifier under Euclidean distance —
// the stand-in for the cross-correlation + classification baseline
// [18].
type KNN struct {
	// K is the neighbourhood size (default 5).
	K int

	X [][]float64
	y []int
}

// Name implements Classifier.
func (m *KNN) Name() string { return "knn" }

// Train implements Classifier (memorise the training set).
func (m *KNN) Train(X [][]float64, y []int) error {
	if err := checkTrainingSet(X, y); err != nil {
		return err
	}
	if m.K <= 0 {
		m.K = 5
	}
	m.X, m.y = X, y
	return nil
}

// Predict implements Classifier.
func (m *KNN) Predict(x []float64) int {
	type nd struct {
		d float64
		y int
	}
	ds := make([]nd, len(m.X))
	for i, xi := range m.X {
		var d float64
		for j := 0; j < len(xi) && j < len(x); j++ {
			diff := xi[j] - x[j]
			d += diff * diff
		}
		ds[i] = nd{d, m.y[i]}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
	k := m.K
	if k > len(ds) {
		k = len(ds)
	}
	ones := 0
	for _, n := range ds[:k] {
		ones += n.y
	}
	if 2*ones > k {
		return 1
	}
	return 0
}

// HDC is a hyperdimensional-computing classifier in the style of
// Laelaps [7]: features are projected into a high-dimensional bipolar
// space by a fixed random matrix; class prototypes are bundled sums;
// prediction is by cosine similarity.
type HDC struct {
	// Dim is the hypervector dimensionality (default 2048).
	Dim int
	// Seed fixes the projection matrix (default 1).
	Seed uint64

	proj  [][]float64 // Dim × d
	proto [2][]float64
}

// Name implements Classifier.
func (m *HDC) Name() string { return "hdc" }

// encode projects x into the hyperspace: the sign of a random affine
// projection. The bias column matters: a purely linear sign projection
// is angle-only and cannot represent a class clustered at the origin.
func (m *HDC) encode(x []float64) []float64 {
	h := make([]float64, m.Dim)
	for i := 0; i < m.Dim; i++ {
		row := m.proj[i]
		z := row[len(row)-1] // bias
		for j := 0; j < len(row)-1 && j < len(x); j++ {
			z += row[j] * x[j]
		}
		if z >= 0 {
			h[i] = 1
		} else {
			h[i] = -1
		}
	}
	return h
}

// Train implements Classifier.
func (m *HDC) Train(X [][]float64, y []int) error {
	if err := checkTrainingSet(X, y); err != nil {
		return err
	}
	if m.Dim <= 0 {
		m.Dim = 2048
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	d := len(X[0])
	r := rng.New(m.Seed)
	m.proj = make([][]float64, m.Dim)
	for i := range m.proj {
		row := make([]float64, d+1) // +1 for the bias column
		for j := range row {
			row[j] = r.NormFloat64()
		}
		m.proj[i] = row
	}
	m.proto[0] = make([]float64, m.Dim)
	m.proto[1] = make([]float64, m.Dim)
	for i, x := range X {
		h := m.encode(x)
		p := m.proto[y[i]&1]
		for j := range h {
			p[j] += h[j]
		}
	}
	return nil
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	den := math.Sqrt(na * nb)
	if den < 1e-12 {
		return 0
	}
	return dot / den
}

// Predict implements Classifier.
func (m *HDC) Predict(x []float64) int {
	h := m.encode(x)
	if cosine(h, m.proto[1]) > cosine(h, m.proto[0]) {
		return 1
	}
	return 0
}

// MLP is a one-hidden-layer perceptron trained by SGD — the stand-in
// for the cloud deep-learning baseline [11].
type MLP struct {
	// Hidden is the hidden layer width (default 16).
	Hidden int
	// Epochs and LearnRate control SGD (defaults 200, 0.05).
	Epochs    int
	LearnRate float64
	// Seed fixes initialisation and shuffling (default 1).
	Seed uint64

	w1 [][]float64 // Hidden × d
	b1 []float64
	w2 []float64 // Hidden
	b2 float64
}

// Name implements Classifier.
func (m *MLP) Name() string { return "mlp" }

// Train implements Classifier.
func (m *MLP) Train(X [][]float64, y []int) error {
	if err := checkTrainingSet(X, y); err != nil {
		return err
	}
	if m.Hidden <= 0 {
		m.Hidden = 16
	}
	if m.Epochs <= 0 {
		m.Epochs = 200
	}
	if m.LearnRate <= 0 {
		m.LearnRate = 0.05
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	d := len(X[0])
	r := rng.New(m.Seed)
	m.w1 = make([][]float64, m.Hidden)
	m.b1 = make([]float64, m.Hidden)
	m.w2 = make([]float64, m.Hidden)
	for i := range m.w1 {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Norm(0, 1/math.Sqrt(float64(d)))
		}
		m.w1[i] = row
		m.w2[i] = r.Norm(0, 1/math.Sqrt(float64(m.Hidden)))
	}

	hidden := make([]float64, m.Hidden)
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < m.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			x, target := X[idx], float64(y[idx])
			// Forward.
			for i := range hidden {
				z := m.b1[i]
				row := m.w1[i]
				for j := 0; j < len(row) && j < len(x); j++ {
					z += row[j] * x[j]
				}
				hidden[i] = math.Tanh(z)
			}
			z2 := m.b2
			for i := range hidden {
				z2 += m.w2[i] * hidden[i]
			}
			out := sigmoid(z2)
			// Backward (cross-entropy).
			dOut := out - target
			for i := range hidden {
				dh := dOut * m.w2[i] * (1 - hidden[i]*hidden[i])
				m.w2[i] -= m.LearnRate * dOut * hidden[i]
				row := m.w1[i]
				for j := 0; j < len(row) && j < len(x); j++ {
					row[j] -= m.LearnRate * dh * x[j]
				}
				m.b1[i] -= m.LearnRate * dh
			}
			m.b2 -= m.LearnRate * dOut
		}
	}
	return nil
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int {
	if len(m.w1) == 0 {
		return 0
	}
	z2 := m.b2
	for i := range m.w1 {
		z := m.b1[i]
		row := m.w1[i]
		for j := 0; j < len(row) && j < len(x); j++ {
			z += row[j] * x[j]
		}
		z2 += m.w2[i] * math.Tanh(z)
	}
	if sigmoid(z2) >= 0.5 {
		return 1
	}
	return 0
}
