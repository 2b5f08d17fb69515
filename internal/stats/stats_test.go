package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMA(t *testing.T) {
	e := &EWMA{alpha: 0.75}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update = %g, want 10 (seed)", got)
	}
	got := e.Update(20)
	want := 0.75*20 + 0.25*10
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("second update = %g, want %g", got, want)
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRateMeter(%g, 1e9) should panic", a)
				}
			}()
			NewRateMeter(a, 1e9)
		}()
	}
}

func TestRateMeter(t *testing.T) {
	m := NewRateMeter(1.0, 1e9) // 1s windows, no smoothing memory
	// 100 events in the first second.
	for i := int64(0); i < 100; i++ {
		m.Observe(i*1e7, 1)
	}
	// Crossing into the second window folds the first in.
	m.Observe(1e9, 1)
	if got := m.Rate(); math.Abs(got-100) > 1e-9 {
		t.Errorf("rate = %g, want 100", got)
	}
	// Idle windows decay the rate to zero with alpha=1.
	m.Observe(5e9, 1)
	if got := m.Rate(); got > 1.1 {
		t.Errorf("rate after idle gap = %g, want ~0-1", got)
	}
}

func TestQuantilesExactSmall(t *testing.T) {
	q := NewQuantiles(1000)
	for i := 1; i <= 100; i++ {
		q.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{{0, 1}, {1, 100}, {0.5, 50.5}}
	for _, c := range cases {
		if got := q.Quantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := q.Percentile(99); got < 98 || got > 100 {
		t.Errorf("P99 = %g", got)
	}
}

func TestQuantilesReservoir(t *testing.T) {
	q := NewQuantiles(512)
	for i := 0; i < 100000; i++ {
		q.Add(float64(i % 1000))
	}
	if q.N() != 100000 {
		t.Errorf("N = %d", q.N())
	}
	med := q.Quantile(0.5)
	if med < 350 || med > 650 {
		t.Errorf("reservoir median = %g, want ~500", med)
	}
	if math.IsNaN(NewQuantiles(4).Quantile(0.5)) != true {
		t.Error("empty quantiles should be NaN")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRand(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(42)
	// meanStd returns the sample mean and standard deviation of n draws.
	meanStd := func(n int, draw func() float64) (mean, std float64) {
		var sum, sq float64
		for i := 0; i < n; i++ {
			x := draw()
			sum += x
			sq += x * x
		}
		mean = sum / float64(n)
		return mean, math.Sqrt((sq - float64(n)*mean*mean) / float64(n-1))
	}
	if mean, _ := meanStd(20000, func() float64 { return r.Exp(5) }); math.Abs(mean-5) > 0.2 {
		t.Errorf("Exp mean = %g, want ~5", mean)
	}
	if mean, std := meanStd(20000, func() float64 { return r.Normal(10, 2) }); math.Abs(mean-10) > 0.1 || math.Abs(std-2) > 0.1 {
		t.Errorf("Normal = (%g, %g), want (10, 2)", mean, std)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Pareto(64, 1.2); v < 64 {
			t.Fatalf("Pareto below scale: %g", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(1)
	z := NewZipf(r, 1000, 1.1)
	counts := make([]int, 1000)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	if counts[0] < counts[10] || counts[10] < counts[500] {
		t.Errorf("Zipf not monotone-ish: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
	// Rank 0 should take a visible share under s=1.1.
	if float64(counts[0])/float64(n) < 0.05 {
		t.Errorf("rank-0 share too small: %d/%d", counts[0], n)
	}
}

// bisectRank is the plain inverse-CDF bisection the guide table narrows:
// the first rank whose CDF is at least u.
func bisectRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesBisection: the guided search returns exactly the
// bisection's rank for random draws, Sample consumes one Float64 per draw,
// and both agree at and beside every guide boundary j/n and every guided
// rank's CDF value, where rounding in u*n would show.
func TestZipfGuideMatchesBisection(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, n := range []int{1, 2, 3, 4062, 1 << 16, 1 << 20} {
		for _, s := range []float64{0, 1.05, 1.25, 1.4} {
			z := NewZipf(NewRand(uint64(n)), n, s)
			ref := NewRand(uint64(n))
			for i := 0; i < draws; i++ {
				u := ref.Float64()
				if got, want := z.Sample(), bisectRank(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%g: draw %d (u=%v) gave rank %d, bisection %d", n, s, i, u, got, want)
				}
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.rank(u), bisectRank(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%g: u=%v gave rank %d, bisection %d", n, s, u, got, want)
				}
			}
			for j, r := range z.guide {
				for _, x := range []float64{float64(j) / float64(n), z.cdf[r]} {
					check(math.Nextafter(x, 0))
					check(x)
					check(math.Nextafter(x, 1))
				}
			}
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(5)
	h.Add(15)
	h.AddN(95, 3)
	h.Add(-10) // clamps to bin 0
	h.Add(500) // clamps to last bin
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[9] != 4 {
		t.Errorf("counts = %v", h.Counts)
	}
	pdf := h.PDF()
	sum := 0.0
	for _, p := range pdf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("PDF sums to %g", sum)
	}
	cdf := h.CDF()
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
		t.Errorf("CDF tail = %g", cdf[len(cdf)-1])
	}
	if h.MemoryBytes(4) != 40 {
		t.Errorf("MemoryBytes = %d", h.MemoryBytes(4))
	}
}

func TestHistogramQuantize(t *testing.T) {
	h := NewHistogram(0, 64, 64)
	for i := 0; i < 64; i++ {
		h.AddN(float64(i)+0.5, uint64(i))
	}
	q := h.Quantize(3) // merge 8 bins
	if len(q.Counts) != 8 {
		t.Fatalf("quantized bins = %d, want 8", len(q.Counts))
	}
	if q.Total() != h.Total() {
		t.Errorf("quantize lost mass: %d vs %d", q.Total(), h.Total())
	}
	if q.Counts[0] != 0+1+2+3+4+5+6+7 {
		t.Errorf("first merged bin = %d", q.Counts[0])
	}
	if got := h.Quantize(0); len(got.Counts) != 64 {
		t.Errorf("QL 0 must preserve resolution")
	}
}

// normalHists bins n draws of N(0,1) and of N(shift,1) into two
// histograms of 0.05-wide bins over [-6, 8).
func normalHists(n int, shift float64) (a, b *Histogram) {
	r := NewRand(3)
	a, b = NewHistogram(-6, 8, 280), NewHistogram(-6, 8, 280)
	for i := 0; i < n; i++ {
		a.Add(r.Normal(0, 1))
		b.Add(r.Normal(shift, 1))
	}
	return a, b
}

func TestKSSameDistribution(t *testing.T) {
	if d := KSStatHist(normalHists(500, 0)); d > 0.1 {
		t.Errorf("same-distribution samples: D=%g, want <= 0.1", d)
	}
}

func TestKSDifferentDistribution(t *testing.T) {
	if d := KSStatHist(normalHists(500, 2)); d < 0.5 {
		t.Errorf("distribution shifted by 2 sigma: D=%g, want >= 0.5", d)
	}
}

func TestKSEdgeCases(t *testing.T) {
	empty, one := NewHistogram(0, 10, 10), NewHistogram(0, 10, 10)
	one.Add(1)
	if KSStatHist(empty, one) != 0 || KSStatHist(one, empty) != 0 {
		t.Error("empty sample KS should be 0")
	}
}

func TestKSStatHist(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		a.Add(2.5)
		b.Add(7.5)
	}
	if d := KSStatHist(a, b); d != 1 {
		t.Errorf("disjoint hist KS = %g, want 1", d)
	}
	if d := KSStatHist(a, a.Clone()); d != 0 {
		t.Errorf("identical hist KS = %g, want 0", d)
	}
}

func TestTRWScanner(t *testing.T) {
	trw := NewTRWTest(DefaultTRWConfig())
	var w TRWWalk
	v := TRWPending
	for i := 0; i < 50 && v == TRWPending; i++ {
		v = trw.Observe(&w, false) // all failures
	}
	if v != TRWScanner {
		t.Errorf("all-failure host verdict = %v, want scanner", v)
	}
	// Terminal verdicts are sticky.
	if trw.Observe(&w, true) != TRWScanner {
		t.Error("verdict must be sticky")
	}
}

func TestTRWBenign(t *testing.T) {
	trw := NewTRWTest(DefaultTRWConfig())
	var w TRWWalk
	v := TRWPending
	for i := 0; i < 50 && v == TRWPending; i++ {
		v = trw.Observe(&w, true)
	}
	if v != TRWBenign {
		t.Errorf("all-success host verdict = %v, want benign", v)
	}
}

// Property: the TRW walk moves up on failure and down on success for any
// valid configuration.
func TestTRWMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		cfg := TRWConfig{
			Theta0: 0.6 + 0.35*r.Float64(),
			Theta1: 0.05 + 0.3*r.Float64(),
			Alpha:  0.01, Beta: 0.01,
		}
		if cfg.Theta1 >= cfg.Theta0 {
			return true // skip invalid draw
		}
		trw := NewTRWTest(cfg)
		var a, b TRWWalk
		trw.Observe(&a, false)
		trw.Observe(&b, true)
		return a.logLambda > 0 && b.logLambda < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNaiveBayes(t *testing.T) {
	nb := NewNaiveBayes(4)
	if _, _, err := nb.Classify([]uint64{1, 0, 0, 0}); err == nil {
		t.Error("untrained classifier must error")
	}
	if err := nb.Train("siteA", []uint64{100, 10, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := nb.Train("siteB", []uint64{0, 1, 10, 100}); err != nil {
		t.Fatal(err)
	}
	got, _, err := nb.Classify([]uint64{50, 5, 0, 0})
	if err != nil || got != "siteA" {
		t.Errorf("Classify = %q, %v; want siteA", got, err)
	}
	got, _, _ = nb.Classify([]uint64{0, 0, 5, 50})
	if got != "siteB" {
		t.Errorf("Classify = %q, want siteB", got)
	}
	if err := nb.Train("bad", []uint64{1}); err == nil {
		t.Error("shape mismatch must error")
	}
	if err := nb.Train("empty", []uint64{0, 0, 0, 0}); err == nil {
		t.Error("empty class must error")
	}
}

func TestNaiveBayesHist(t *testing.T) {
	nb := NewNaiveBayes(8)
	ha := NewHistogram(0, 8, 8)
	hb := NewHistogram(0, 8, 8)
	for i := 0; i < 200; i++ {
		ha.Add(1.5)
		hb.Add(6.5)
	}
	_ = nb.Train("low", ha.Counts)
	_ = nb.Train("high", hb.Counts)
	obs := NewHistogram(0, 8, 8)
	obs.AddN(1.5, 20)
	got, _, err := nb.ClassifyHist(obs)
	if err != nil || got != "low" {
		t.Errorf("ClassifyHist = %q, %v", got, err)
	}
}

// BenchmarkZipfSample draws from the 2^20-flow population of the
// benchmark's manyflows workload; BenchmarkZipfBisection is the same draw
// by plain bisection, for comparison.
func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(NewRand(1), 1<<20, 1.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRank = z.Sample()
	}
}

func BenchmarkZipfBisection(b *testing.B) {
	z := NewZipf(NewRand(1), 1<<20, 1.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRank = bisectRank(z.cdf, z.rng.Float64())
	}
}

var sinkRank int
