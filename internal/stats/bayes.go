package stats

import (
	"fmt"
	"math"
)

// NaiveBayes is a multinomial naive Bayes classifier over histogram
// features, the model FlowLens (NDSS '21) and the SmartWatch website-
// fingerprinting experiment use: each class (web site) has a packet-length
// distribution; a flow's observed PLD histogram is scored against each
// class with Laplace smoothing and the max-posterior class wins.
type NaiveBayes struct {
	features int
	classes  []string
	logPrior []float64
	logProb  [][]float64 // [class][feature]
}

// NewNaiveBayes creates an untrained classifier for histograms with the
// given number of bins.
func NewNaiveBayes(features int) *NaiveBayes {
	if features <= 0 {
		panic("stats: NaiveBayes needs at least one feature")
	}
	return &NaiveBayes{features: features}
}

// Train adds one class from aggregate feature counts (e.g. the summed PLD
// histogram of all training flows of a site). Training examples carry equal
// priors unless weights are supplied through repeated classes.
func (nb *NaiveBayes) Train(class string, counts []uint64) error {
	if len(counts) != nb.features {
		return fmt.Errorf("stats: class %q has %d features, want %d", class, len(counts), nb.features)
	}
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return fmt.Errorf("stats: class %q has no observations", class)
	}
	lp := make([]float64, nb.features)
	denom := float64(total) + float64(nb.features) // Laplace smoothing
	for i, c := range counts {
		lp[i] = math.Log((float64(c) + 1) / denom)
	}
	nb.classes = append(nb.classes, class)
	nb.logProb = append(nb.logProb, lp)
	// Uniform priors over classes.
	nb.logPrior = make([]float64, len(nb.classes))
	prior := -math.Log(float64(len(nb.classes)))
	for i := range nb.logPrior {
		nb.logPrior[i] = prior
	}
	return nil
}

// Classify scores an observed feature-count vector and returns the
// max-posterior class with its log score. It returns an error when
// untrained or on shape mismatch.
func (nb *NaiveBayes) Classify(counts []uint64) (string, float64, error) {
	if len(nb.classes) == 0 {
		return "", 0, fmt.Errorf("stats: classifier is untrained")
	}
	if len(counts) != nb.features {
		return "", 0, fmt.Errorf("stats: observation has %d features, want %d", len(counts), nb.features)
	}
	best, bestScore := -1, math.Inf(-1)
	for ci := range nb.classes {
		score := nb.logPrior[ci]
		lp := nb.logProb[ci]
		for i, c := range counts {
			if c != 0 {
				score += float64(c) * lp[i]
			}
		}
		if score > bestScore {
			best, bestScore = ci, score
		}
	}
	return nb.classes[best], bestScore, nil
}

// ClassifyHist classifies a histogram (its bin counts are the multinomial
// feature vector).
func (nb *NaiveBayes) ClassifyHist(h *Histogram) (string, float64, error) {
	return nb.Classify(h.Counts)
}
