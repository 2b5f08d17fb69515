// Package sketch implements the approximate flow-measurement baselines the
// SmartWatch paper compares against: Count-Min, Elastic Sketch (SIGCOMM
// '18), MV-Sketch (INFOCOM '19) and NitroSketch (SIGCOMM '19) — plus the
// heavy-hitter, heavy-change and flow-size-distribution estimators built
// on them (Fig. 10, Fig. 11b).
//
// Every sketch tracks an operation profile (hash computations, memory reads
// and writes per update) so the simulators can convert algorithmic cost
// into the per-packet cycle budgets that determine throughput: the paper's
// Fig. 11b ranks platforms almost entirely by memory operations per packet.
package sketch

import "smartwatch/internal/packet"

// OpProfile counts the abstract operations a sketch has performed. The
// datapath simulators convert these to cycles using per-device costs.
type OpProfile struct {
	Hashes    uint64
	MemReads  uint64
	MemWrites uint64
	Updates   uint64
}

// PerUpdate returns the average (hashes, reads, writes) per update.
func (o OpProfile) PerUpdate() (h, r, w float64) {
	if o.Updates == 0 {
		return 0, 0, 0
	}
	n := float64(o.Updates)
	return float64(o.Hashes) / n, float64(o.MemReads) / n, float64(o.MemWrites) / n
}

// FlowCounter is the point-query interface all sketches share.
type FlowCounter interface {
	// Update adds n to the key's counter.
	Update(k packet.FlowKey, n uint64)
	// Estimate returns the (approximate) count for the key.
	Estimate(k packet.FlowKey) uint64
	// Ops returns the cumulative operation profile.
	Ops() OpProfile
	// MemoryBytes returns the structure's fixed memory footprint.
	MemoryBytes() int
	// Reset clears all counters (new measurement interval).
	Reset()
}

// HeavyHitter is one reported heavy flow.
type HeavyHitter struct {
	Key   packet.FlowKey
	Count uint64
}

// Invertible is implemented by sketches that can enumerate their heavy
// flows without an external key list (Elastic, MV-Sketch).
type Invertible interface {
	FlowCounter
	// HeavyHitters returns flows with estimated count >= threshold.
	HeavyHitters(threshold uint64) []HeavyHitter
}
