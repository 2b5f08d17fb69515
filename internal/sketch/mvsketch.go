package sketch

import "smartwatch/internal/packet"

// MVSketch implements the invertible majority-vote sketch of Tang, Huang &
// Lee (INFOCOM '19). Each bucket keeps a total count V, a candidate heavy
// key K and the candidate's vote margin C, updated with the Boyer–Moore
// majority rule.
type MVSketch struct {
	buckets [][]mvBucket
	w, d    int
	seeds   []uint64
}

type mvBucket struct {
	total     uint64
	candidate packet.FlowKey
	margin    int64
	occupied  bool
}

// NewMVSketch returns a sketch with d rows of w buckets.
func NewMVSketch(w, d int) *MVSketch {
	if w <= 0 || d <= 0 {
		panic("sketch: MVSketch dimensions must be positive")
	}
	mv := &MVSketch{w: w, d: d, seeds: make([]uint64, d), buckets: make([][]mvBucket, d)}
	for i := range mv.buckets {
		mv.buckets[i] = make([]mvBucket, w)
		mv.seeds[i] = uint64(i)*0xd6e8feb86659fd93 + 7
	}
	return mv
}

// Update applies the majority-vote rule in every row.
func (mv *MVSketch) Update(k packet.FlowKey, n uint64) {
	for i := 0; i < mv.d; i++ {
		b := &mv.buckets[i][k.HashSeed(mv.seeds[i])%uint64(mv.w)]
		b.total += n
		switch {
		case !b.occupied:
			b.candidate, b.margin, b.occupied = k, int64(n), true
		case b.candidate == k:
			b.margin += int64(n)
		default:
			b.margin -= int64(n)
			if b.margin < 0 {
				b.candidate, b.margin = k, -b.margin
			}
		}
	}
}

// Estimate returns the MV-Sketch point estimate: for the candidate key the
// estimate is (V+C)/2, otherwise (V-C)/2, minimised over rows.
func (mv *MVSketch) Estimate(k packet.FlowKey) uint64 {
	est := ^uint64(0)
	for i := 0; i < mv.d; i++ {
		b := &mv.buckets[i][k.HashSeed(mv.seeds[i])%uint64(mv.w)]
		var e uint64
		if b.occupied && b.candidate == k {
			e = (b.total + uint64(b.margin)) / 2
		} else {
			m := uint64(0)
			if b.margin > 0 {
				m = uint64(b.margin)
			}
			e = (b.total - m) / 2
		}
		if e < est {
			est = e
		}
	}
	return est
}
