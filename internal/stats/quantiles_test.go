package stats

import (
	"math"
	"slices"
	"testing"
)

// fill returns an accumulator of capacity c fed n observations of value v,
// each a little apart so that retained samples are told apart.
func fill(c, n int, v float64) *Quantiles {
	q := NewQuantiles(c)
	for i := range n {
		q.Add(v + float64(i)*1e-9)
	}
	return q
}

// share is the fraction of q's retained samples in [v, v+1).
func share(q *Quantiles, v float64) float64 {
	n := 0
	for _, x := range q.samples {
		if x >= v && x < v+1 {
			n++
		}
	}
	return float64(n) / float64(len(q.samples))
}

// A short drive allocates one reservoir of smallSamples. Filling one past
// its cap allocates twice, that and the cap, and nothing more; a merge
// sizes its target once.
func TestQuantilesGrowsOnceToCap(t *testing.T) {
	const c, runs = 4 * smallSamples, 4
	adds := func(n int) float64 {
		qs := make([]*Quantiles, runs+1)
		for i := range qs {
			qs[i] = NewQuantiles(c)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			q := qs[next]
			next++
			for i := range n {
				q.Add(float64(i))
			}
		})
	}
	if n := adds(1000); n != 1 {
		t.Errorf("1000 Adds: %.1f allocations, want 1", n)
	}
	if q := fill(c, 1000, 0); cap(q.samples) != smallSamples {
		t.Errorf("1000 Adds: a reservoir of %d, want %d", cap(q.samples), smallSamples)
	}
	if n := adds(c + 10_000); n != 2 {
		t.Errorf("%d Adds into a reservoir of %d: %.1f allocations, want 2", c+10_000, c, n)
	}
	a, b := fill(c, 3*c, 1), fill(c, c/2, 2)
	targets := make([]*Quantiles, runs+1)
	for i := range targets {
		targets[i] = NewQuantiles(c)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		q := targets[next]
		next++
		q.Merge(a)
		q.Merge(b)
	}); n != 1 {
		t.Errorf("merging two reservoirs into an empty one: %.1f allocations, want 1", n)
	}
}

// Merging reservoirs that are past their caps keeps each side's samples in
// proportion to the observations it saw, not to the merge order, also
// when their retained samples together fit the target's cap.
func TestQuantilesMergeWeightsBySeen(t *testing.T) {
	const c = 4096
	for _, tc := range []struct {
		name          string
		srcCap        int
		na, nb, wantN int
	}{
		{"9:1", c, 9 * 20 * c, 20 * c, c},
		{"1:1", c, 20 * c, 20 * c, c},
		{"9:1-under-target", c / 4, 9 * 20 * c, 20 * c, c / 4 * 10 / 9},
		{"1:1-under-target", c / 4, 20 * c, 20 * c, c / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQuantiles(c)
			q.Merge(fill(tc.srcCap, tc.na, 1))
			q.Merge(fill(tc.srcCap, tc.nb, 2))
			if len(q.samples) != tc.wantN {
				t.Fatalf("merged reservoir holds %d samples, want %d", len(q.samples), tc.wantN)
			}
			if q.N() != int64(tc.na+tc.nb) {
				t.Errorf("N = %d, want %d", q.N(), tc.na+tc.nb)
			}
			want := float64(tc.na) / float64(tc.na+tc.nb)
			if got := share(q, 1); math.Abs(got-want) > 0.02 {
				t.Errorf("first source keeps %.3f of the merged samples, want %.3f ± 0.02", got, want)
			}
		})
	}
}

// mergeByAdd is the reference for a merge under the cap: o's retained
// samples re-added one by one.
func mergeByAdd(q, o *Quantiles) {
	for _, x := range o.samples {
		q.Add(x)
	}
	q.seen += o.seen - int64(len(o.samples))
}

// A merge of sources that all kept every sample, and fit the cap together,
// is the in-order concatenation, as re-adding them one by one gave.
func TestQuantilesMergeUnderCapIsExact(t *testing.T) {
	const c = 1 << 12
	srcs := []*Quantiles{fill(c, 1000, 1), fill(512, 512, 2), fill(c, 0, 3), fill(c, c-1512, 4)}
	got, want := NewQuantiles(c), NewQuantiles(c)
	for _, o := range srcs {
		got.Merge(o)
		mergeByAdd(want, o)
	}
	if !slices.Equal(got.samples, want.samples) || got.N() != want.N() {
		t.Fatalf("under-cap merge: %d samples (N %d), re-adding gave %d (N %d)", len(got.samples), got.N(), len(want.samples), want.N())
	}
	if got.Quantile(0.5) != want.Quantile(0.5) || got.Quantile(0.99) != want.Quantile(0.99) {
		t.Error("under-cap merge answers quantiles differently from re-adding")
	}
}

// The same merge run twice keeps the same samples.
func TestQuantilesMergeRepeats(t *testing.T) {
	const c = 2048
	run := func() []float64 {
		q := NewQuantiles(c)
		q.Merge(fill(c, 7*c, 1))
		q.Merge(fill(c, 3*c, 2))
		q.Merge(fill(c/2, 5*c, 3))
		return q.samples
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Error("the same merge kept different samples on a second run")
	}
}

func BenchmarkQuantilesAdd(b *testing.B) {
	q := NewQuantiles(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Add(float64(i))
	}
}
