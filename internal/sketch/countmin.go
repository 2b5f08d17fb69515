package sketch

import "smartwatch/internal/packet"

// CountMin is the classic Count-Min sketch: d rows of w counters, point
// query = min over rows. Every update computes d hashes and touches d
// counters, which is exactly why the paper's Fig. 11b shows Count-Min with
// the lowest packet throughput of the compared designs.
type CountMin struct {
	rows    [][]uint64
	w, d    int
	seeds   []uint64
	profile OpProfile
}

// NewCountMin returns a sketch with d rows of w counters each.
func NewCountMin(w, d int) *CountMin {
	if w <= 0 || d <= 0 {
		panic("sketch: CountMin dimensions must be positive")
	}
	cm := &CountMin{w: w, d: d, seeds: make([]uint64, d), rows: make([][]uint64, d)}
	for i := range cm.rows {
		cm.rows[i] = make([]uint64, w)
		cm.seeds[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return cm
}

// Update adds n to the key's counters in every row.
func (cm *CountMin) Update(k packet.FlowKey, n uint64) {
	cm.profile.Updates++
	for i := 0; i < cm.d; i++ {
		idx := k.HashSeed(cm.seeds[i]) % uint64(cm.w)
		cm.rows[i][idx] += n
		cm.profile.Hashes++
		cm.profile.MemReads++
		cm.profile.MemWrites++
	}
}

// Estimate returns the minimum counter across rows.
func (cm *CountMin) Estimate(k packet.FlowKey) uint64 {
	est := ^uint64(0)
	for i := 0; i < cm.d; i++ {
		idx := k.HashSeed(cm.seeds[i]) % uint64(cm.w)
		if c := cm.rows[i][idx]; c < est {
			est = c
		}
	}
	return est
}

// Ops returns the cumulative operation profile.
func (cm *CountMin) Ops() OpProfile { return cm.profile }
