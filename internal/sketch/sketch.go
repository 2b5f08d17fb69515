// Package sketch implements the approximate flow-measurement baselines the
// SmartWatch paper compares against: Count-Min, Elastic Sketch (SIGCOMM
// '18), MV-Sketch (INFOCOM '19) and NitroSketch (SIGCOMM '19) — plus the
// heavy-hitter, heavy-change and flow-size-distribution estimators built
// on them (Fig. 10, Fig. 11b).
//
// The sketches Fig. 11b ranks (Count-Min, Elastic, Nitro) track an
// operation profile (hash computations, memory reads and writes per
// update) so the simulators can convert algorithmic cost into the
// per-packet cycle budgets that determine throughput: the paper's Fig. 11b
// ranks platforms almost entirely by memory operations per packet.
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

// FlowCounter is the point query the scoring helpers evaluate: any
// sketch, or SmartWatch's lossless flow log.
type FlowCounter interface {
	// Estimate returns the (approximate) count for the key.
	Estimate(k packet.FlowKey) uint64
}

// HeavyHitter is one reported heavy flow.
type HeavyHitter struct {
	Key   packet.FlowKey
	Count uint64
}
