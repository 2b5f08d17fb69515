package obs

import (
	"math"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets: bucket i holds values
// v < Bounds[i], with one extra overflow bucket for v >= Bounds[last].
// Observe is a linear scan over a handful of bounds plus one atomic add —
// no allocation. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits accumulated via CAS
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v >= h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramValue is a histogram's materialised state for snapshots.
type HistogramValue struct {
	// Bounds are the bucket upper bounds; Buckets has len(Bounds)+1
	// entries, the last being the overflow bucket.
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Value materialises the histogram.
func (h *Histogram) Value() HistogramValue {
	if h == nil {
		return HistogramValue{}
	}
	v := HistogramValue{
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
	}
	for i := range h.buckets {
		v.Buckets[i] = h.buckets[i].Load()
	}
	return v
}

// ExpBounds returns n ascending bounds starting at start, each factor×
// the previous — the standard latency-histogram shape (e.g.
// ExpBounds(100, 4, 8) spans 100 ns … 1.6 ms).
func ExpBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
