package ml

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, TN, FP, FN int
}

// Observe records one prediction against its truth.
func (c *Confusion) Observe(predicted, truth int) {
	switch {
	case predicted == 1 && truth == 1:
		c.TP++
	case predicted == 0 && truth == 0:
		c.TN++
	case predicted == 1 && truth == 0:
		c.FP++
	default:
		c.FN++
	}
}

// Total returns the number of observations.
func (c *Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns (TP+TN)/total, or 0 when empty.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Sensitivity returns TP/(TP+FN) (recall on anomalies), or 0.
func (c *Confusion) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Specificity returns TN/(TN+FP), or 0.
func (c *Confusion) Specificity() float64 {
	if c.TN+c.FP == 0 {
		return 0
	}
	return float64(c.TN) / float64(c.TN+c.FP)
}

// FalsePositiveRate returns FP/(FP+TN), or 0 — the paper reports ≈15%
// for EMAP's sensitivity-first tuning.
func (c *Confusion) FalsePositiveRate() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// Evaluate runs a trained classifier over a test set.
func Evaluate(m Classifier, X [][]float64, y []int) Confusion {
	var c Confusion
	for i, x := range X {
		c.Observe(m.Predict(x), y[i])
	}
	return c
}
