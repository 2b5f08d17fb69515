package stats

import (
	"math"
	"sort"
)

// Quantiles collects observations and answers exact quantile queries. For
// the trace volumes the simulators produce this is bounded by reservoir
// sampling above maxSamples entries, which keeps quantile error negligible
// while capping memory.
type Quantiles struct {
	samples []float64
	seen    int64
	cap     int
	sorted  bool
	rng     *Rand
}

// NewQuantiles returns a quantile accumulator holding at most maxSamples
// observations (reservoir-sampled beyond that). maxSamples <= 0 selects a
// default of 1<<16.
func NewQuantiles(maxSamples int) *Quantiles {
	if maxSamples <= 0 {
		maxSamples = 1 << 16
	}
	return &Quantiles{cap: maxSamples, rng: NewRand(0x9e3779b97f4a7c15)}
}

// Add folds one observation in.
func (q *Quantiles) Add(x float64) {
	q.seen++
	q.sorted = false
	if len(q.samples) < q.cap {
		q.samples = append(q.samples, x)
		return
	}
	// Vitter's reservoir: replace a random slot with probability cap/seen.
	if j := q.rng.Int64N(q.seen); j < int64(q.cap) {
		q.samples[j] = x
	}
}

// N returns the number of observations seen (not retained).
func (q *Quantiles) N() int64 { return q.seen }

// Merge folds another accumulator's retained samples into q — the
// end-of-drive reduction the cluster runner uses to combine per-worker
// latency reservoirs. Samples are re-added in o's retained order, so the
// merge is deterministic; when the sources stayed below their reservoir
// cap (the usual case for per-worker drives) the result is exact, and
// beyond the cap it degrades to ordinary reservoir sampling. Observations
// o saw but no longer retains still count toward N.
func (q *Quantiles) Merge(o *Quantiles) {
	if o == nil {
		return
	}
	for _, x := range o.samples {
		q.Add(x)
	}
	q.seen += o.seen - int64(len(o.samples))
}

// Quantile returns the p-quantile (0<=p<=1) with linear interpolation, or
// NaN with no data.
func (q *Quantiles) Quantile(p float64) float64 {
	if len(q.samples) == 0 {
		return math.NaN()
	}
	if !q.sorted {
		sort.Float64s(q.samples)
		q.sorted = true
	}
	if p <= 0 {
		return q.samples[0]
	}
	if p >= 1 {
		return q.samples[len(q.samples)-1]
	}
	pos := p * float64(len(q.samples)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(q.samples) {
		return q.samples[lo]
	}
	return q.samples[lo]*(1-frac) + q.samples[lo+1]*frac
}

// Percentile is Quantile with p in [0,100].
func (q *Quantiles) Percentile(p float64) float64 { return q.Quantile(p / 100) }
