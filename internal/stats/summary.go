package stats

import (
	"math"
	"sort"
)

// Quantiles collects observations and answers exact quantile queries. For
// the trace volumes the simulators produce this is bounded by reservoir
// sampling above maxSamples entries, which keeps quantile error negligible
// while capping memory. The reservoir starts at smallSamples and, once that
// fills, grows straight to its cap.
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

// smallSamples is the reservoir's first size: a short drive pays 32 KB
// for it, not the 512 KB of the default cap, and a long one allocates
// twice, not once per doubling.
const smallSamples = 1 << 12

// grow makes room for n retained samples, n at most the cap: smallSamples
// while n fits it, else the whole cap.
func (q *Quantiles) grow(n int) {
	if n <= cap(q.samples) {
		return
	}
	size := q.cap
	if n <= smallSamples {
		size = min(q.cap, smallSamples)
	}
	q.samples = append(make([]float64, 0, size), q.samples...)
}

// Add folds one observation in.
func (q *Quantiles) Add(x float64) {
	q.seen++
	q.sorted = false
	if len(q.samples) < q.cap {
		if len(q.samples) == cap(q.samples) {
			q.grow(len(q.samples) + 1)
		}
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

// Merge folds another accumulator into q — the end-of-drive reduction the
// cluster runner uses to combine per-worker latency reservoirs. While
// neither side has passed its cap and both retained sets fit q's cap
// together, o's samples are appended in order and the merge is exact (the
// usual case for per-worker drives). Otherwise each retained sample
// stands for seen/retained observations of its side, and q keeps a draw
// from the union of the observations both saw: as many as the cap allows
// and neither side's expected share overruns its retained samples. How
// many come from each side is drawn observation by observation, weighted
// by what each side has seen and not yet given, and that many of its
// retained samples are picked uniformly, in order. The draw comes from
// q's own generator, so a merge repeats. Observations o saw but does not
// retain still count toward N.
func (q *Quantiles) Merge(o *Quantiles) {
	if o == nil || o.seen == 0 {
		return
	}
	q.sorted = false
	n := len(q.samples) + len(o.samples)
	if n <= q.cap && q.seen == int64(len(q.samples)) && o.seen == int64(len(o.samples)) {
		q.grow(n)
		q.samples = append(q.samples, o.samples...)
		q.seen += o.seen
		return
	}
	all := q.seen + o.seen
	m := min(q.cap, n, drawFits(len(q.samples), q.seen, all), drawFits(len(o.samples), o.seen, all))
	q.grow(m)
	mq, mo := 0, 0
	for rq, ro := q.seen, o.seen; mq+mo < m; {
		if mo == len(o.samples) || mq < len(q.samples) && q.rng.Int64N(rq+ro) < rq {
			mq, rq = mq+1, rq-1
		} else {
			mo, ro = mo+1, ro-1
		}
	}
	q.samples = q.pick(q.samples[:0], q.samples, mq)
	q.samples = q.pick(q.samples, o.samples, mo)
	q.seen += o.seen
}

// drawFits returns the largest draw from all observations whose expected
// share of a side that saw seen of them and retains n is at most n.
func drawFits(n int, seen, all int64) int {
	if seen == 0 {
		return math.MaxInt
	}
	return int(int64(n) * all / seen)
}

// pick appends m of src's samples to dst, each m-subset equally likely, in
// src's order (Knuth's selection sampling). dst may share src's array
// from its start: it never passes the sample being read.
func (q *Quantiles) pick(dst, src []float64, m int) []float64 {
	if m == len(src) {
		return append(dst, src...)
	}
	for i, x := range src {
		if m == 0 {
			break
		}
		if q.rng.Int64N(int64(len(src)-i)) < int64(m) {
			dst = append(dst, x)
			m--
		}
	}
	return dst
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
