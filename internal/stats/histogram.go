package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width binned histogram over [Min, Max). The covert
// timing channel detector bins inter-packet delays with it (the paper uses
// 1 µs bins over 1–100 µs on the sNIC) and the website-fingerprint
// classifier bins packet lengths. Values outside the range clamp to the
// edge bins, matching how the P4 register implementations behave.
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	total    uint64
	width    float64
}

// NewHistogram returns a histogram with bins equal-width bins over
// [min,max). bins must be positive and max > min.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, bins), width: (max - min) / float64(bins)}
}

// Bin returns the bin index for x (clamped).
func (h *Histogram) Bin(x float64) int {
	i := int((x - h.Min) / h.width)
	if i < 0 {
		return 0
	}
	if i >= len(h.Counts) {
		return len(h.Counts) - 1
	}
	return i
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records n observations of x.
func (h *Histogram) AddN(x float64, n uint64) {
	h.Counts[h.Bin(x)] += n
	h.total += n
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Counts = append([]uint64(nil), h.Counts...)
	return &c
}

// Quantize returns a coarser histogram whose bin width is 2^level times
// wider, emulating FlowLens-style quantization levels (QL): QL 0 keeps full
// resolution, higher levels merge adjacent bins and shrink memory.
func (h *Histogram) Quantize(level int) *Histogram {
	if level <= 0 {
		return h.Clone()
	}
	factor := 1 << uint(level)
	nb := (len(h.Counts) + factor - 1) / factor
	q := NewHistogram(h.Min, h.Max, nb)
	for i, c := range h.Counts {
		q.Counts[i/factor] += c
	}
	q.total = h.total
	return q
}

// PDF returns the normalized bin probabilities (nil if empty).
func (h *Histogram) PDF() []float64 {
	if h.total == 0 {
		return nil
	}
	p := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		p[i] = float64(c) / float64(h.total)
	}
	return p
}

// CDF returns the cumulative distribution at bin right edges.
func (h *Histogram) CDF() []float64 {
	p := h.PDF()
	if p == nil {
		return nil
	}
	for i := 1; i < len(p); i++ {
		p[i] += p[i-1]
	}
	return p
}

// MemoryBytes reports the memory footprint a hardware realisation of this
// histogram needs (bytesPerBin per bin), used for the SRAM accounting in
// the covert-channel and fingerprinting experiments.
func (h *Histogram) MemoryBytes(bytesPerBin int) int { return len(h.Counts) * bytesPerBin }

// String summarises the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist[%g,%g) bins=%d n=%d", h.Min, h.Max, len(h.Counts), h.total)
}

// KSStatHist computes the two-sample Kolmogorov–Smirnov statistic between
// two histograms with identical shapes: the maximum absolute difference of
// their CDFs. It panics if the shapes differ.
func KSStatHist(a, b *Histogram) float64 {
	if len(a.Counts) != len(b.Counts) || a.Min != b.Min || a.Max != b.Max {
		panic("stats: KS over mismatched histograms")
	}
	ca, cb := a.CDF(), b.CDF()
	if ca == nil || cb == nil {
		return 0
	}
	d := 0.0
	for i := range ca {
		d = math.Max(d, math.Abs(ca[i]-cb[i]))
	}
	return d
}
