package sketch

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// Nitro implements the core idea of NitroSketch (Liu et al., SIGCOMM '19):
// amortise Count-Min's d-row update cost by updating each row
// independently with probability p and adding 1/p instead of 1, driving
// the *expected* memory operations per packet below one row. This is why
// NitroSketch is the only platform out-throughputting SmartWatch in
// Fig. 11b — and also why it cannot do flow-state tracking: most packets
// never touch the sketch at all.
type Nitro struct {
	rows    [][]uint64
	w, d    int
	p       float64
	inc     uint64
	seeds   []uint64
	rng     *stats.Rand
	profile OpProfile
	// geometric skip state per row (next update countdowns)
	skip []int64
}

// NewNitro returns a sampled Count-Min with d rows of w counters updating
// each row with probability p per packet.
func NewNitro(w, d int, p float64) *Nitro {
	if w <= 0 || d <= 0 || p <= 0 || p > 1 {
		panic("sketch: invalid Nitro parameters")
	}
	n := &Nitro{
		w: w, d: d, p: p, inc: uint64(1/p + 0.5),
		seeds: make([]uint64, d), rows: make([][]uint64, d),
		rng: stats.NewRand(0x6e7472), skip: make([]int64, d),
	}
	for i := range n.rows {
		n.rows[i] = make([]uint64, w)
		n.seeds[i] = uint64(i)*0xa0761d6478bd642f + 3
		n.skip[i] = n.geometric()
	}
	return n
}

// geometric draws the number of packets to skip before the next sampled
// update (mean 1/p), the "always line rate" trick of the paper.
func (n *Nitro) geometric() int64 {
	g := int64(0)
	for n.rng.Float64() > n.p {
		g++
	}
	return g
}

// Update samples row updates: in expectation p*d rows are touched.
func (n *Nitro) Update(k packet.FlowKey, cnt uint64) {
	n.profile.Updates++
	for i := 0; i < n.d; i++ {
		if n.skip[i] > 0 {
			n.skip[i]--
			continue
		}
		n.skip[i] = n.geometric()
		idx := k.HashSeed(n.seeds[i]) % uint64(n.w)
		n.rows[i][idx] += n.inc * cnt
		n.profile.Hashes++
		n.profile.MemReads++
		n.profile.MemWrites++
	}
}

// Estimate returns the median-free Count-Min estimate (min over rows), the
// variant the paper analyses for sampled updates.
func (n *Nitro) Estimate(k packet.FlowKey) uint64 {
	est := ^uint64(0)
	for i := 0; i < n.d; i++ {
		idx := k.HashSeed(n.seeds[i]) % uint64(n.w)
		if c := n.rows[i][idx]; c < est {
			est = c
		}
	}
	return est
}

// Ops returns the cumulative operation profile.
func (n *Nitro) Ops() OpProfile { return n.profile }
