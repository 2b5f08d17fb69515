// Package stats provides the statistical machinery SmartWatch's detectors
// and control loops are built on: exponential moving averages (the
// FlowCache mode-switch controller), running summaries and quantiles
// (latency profiles), two-sample Kolmogorov–Smirnov tests (covert timing
// channel detection), Threshold Random Walk sequential hypothesis testing
// (port-scan detection, Jung et al. 2004), a multinomial naive Bayes
// classifier (website fingerprinting), and the random-variate generators
// the synthetic trace workloads draw from.
package stats

// EWMA is an exponentially weighted moving average,
// F(t+1) = alpha*A(t) + (1-alpha)*F(t), as used by Algorithm 4 of the
// SmartWatch paper to track packet arrival rate (alpha = 0.75 over a window
// of 100 samples).
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Update folds one observation in and returns the new average. The first
// observation seeds the average directly.
func (e *EWMA) Update(x float64) float64 {
	if !e.primed {
		e.value, e.primed = x, true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (zero before any update).
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one observation has been folded in.
func (e *EWMA) Primed() bool { return e.primed }

// Reset clears the average.
func (e *EWMA) Reset() { e.value, e.primed = 0, false }

// RateMeter measures an event rate (events/second) over fixed windows and
// smooths the per-window rates with an EWMA. The FlowCache CME uses one to
// decide General<->Lite switchovers.
type RateMeter struct {
	ewma      EWMA
	windowNs  int64
	start     int64
	count     int64
	hasWindow bool
}

// NewRateMeter returns a meter with the given smoothing factor and window
// size in virtual nanoseconds.
func NewRateMeter(alpha float64, windowNs int64) *RateMeter {
	if windowNs <= 0 {
		panic("stats: RateMeter window must be positive")
	}
	return &RateMeter{ewma: EWMA{alpha: alpha}, windowNs: windowNs}
}

// Observe records n events at virtual time ts and returns the smoothed rate
// in events/second. Windows with no events still decay the average.
func (m *RateMeter) Observe(ts int64, n int64) float64 {
	if !m.hasWindow {
		m.start, m.hasWindow = ts, true
	}
	// Compare before dividing: almost every call lands inside the open
	// window, and a 64-bit divide per packet showed in the drive's profile.
	if el := ts - m.start; el >= m.windowNs {
		m.closeWindows(el / m.windowNs)
	}
	m.count += n
	return m.ewma.Value()
}

// closeWindows folds k elapsed windows into the EWMA: the first carries the
// accumulated count, the remaining k-1 are empty and only decay the average.
// Repeated decay by (1-alpha) underflows float64 to exactly 0 after a
// bounded number of steps (≈ a few hundred for the controller's alpha), and
// from 0 every further empty window is an identity update — so the loop
// exits early there, making a virtual-time idle gap of any length O(1)-ish
// instead of O(gap/windowNs), while remaining bit-identical to decaying one
// window at a time.
func (m *RateMeter) closeWindows(k int64) {
	rate := float64(m.count) / (float64(m.windowNs) / 1e9)
	m.ewma.Update(rate)
	m.count = 0
	for i := int64(1); i < k; i++ {
		if m.ewma.Update(0) == 0 {
			break
		}
	}
	m.start += k * m.windowNs
}

// Rate returns the current smoothed rate in events/second.
func (m *RateMeter) Rate() float64 { return m.ewma.Value() }
