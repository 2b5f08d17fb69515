package stats

import (
	"math"
	"sort"
)

// Two-sample Kolmogorov–Smirnov statistic. The covert-timing-channel detector
// (paper §5.2.1) compares the inter-packet-delay distribution of a
// suspicious flow against a known-good distribution learned from training
// traffic; a large KS statistic flags modulation.

// KSStat computes the two-sample KS statistic between samples a and b.
// Both slices are sorted in place.
func KSStat(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}
