package detect

import (
	"fmt"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// Microburst detects sub-millisecond congestion events (§5.3.2): PMEs
// compare each packet's queueing delay against an operator threshold;
// while the delay stays above it, contributing flows are logged exactly in
// a linear array L (no approximation, unlike ConQuest). When the delay
// drops, a CME scans L and reports the culprit flows with packet counts.
type Microburst struct {
	alertBuf
	thresholdNs float64
	// endFraction: the burst ends when delay falls below
	// thresholdNs*endFraction (hysteresis).
	endFraction float64
	maxEntries  int
	active      bool
	start       int64
	l           map[packet.FlowKey]uint64 // the linear array L
	reports     []BurstReport
	overflowed  bool
}

// BurstReport is one completed microburst event.
type BurstReport struct {
	// Start / End bound the burst (virtual ns).
	Start, End int64
	// Flows maps each culprit flow to its packet count within the burst.
	Flows map[packet.FlowKey]uint64
	// Truncated marks reports whose L overflowed.
	Truncated bool
}

// NewMicroburst builds the detector. thresholdNs is the queueing-delay
// trigger (the paper sweeps 200–2000 µs); maxEntries sizes L (96 MB / 24 B
// entries in the paper).
func NewMicroburst(thresholdNs float64, maxEntries int) *Microburst {
	if thresholdNs <= 0 {
		thresholdNs = 200e3
	}
	if maxEntries <= 0 {
		maxEntries = 1 << 20
	}
	return &Microburst{
		thresholdNs: thresholdNs, endFraction: 0.5, maxEntries: maxEntries,
		l: map[packet.FlowKey]uint64{},
	}
}

// Name implements Detector.
func (d *Microburst) Name() string { return "microburst" }

// OnPacket implements Detector.
func (d *Microburst) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *Microburst) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	switch {
	case ctx.QueueDelayNs >= d.thresholdNs:
		if !d.active {
			d.active = true
			d.start = p.Ts
			d.overflowed = false
		}
		var k packet.FlowKey
		identity(p, rec, ctx, &k)
		if len(d.l) < d.maxEntries {
			d.l[k]++
		} else if _, ok := d.l[k]; ok {
			d.l[k]++
		} else {
			d.overflowed = true
		}
		return 0, 30
	case d.active && ctx.QueueDelayNs < d.thresholdNs*d.endFraction:
		d.finish(p.Ts)
	}
	return 0, 5
}

// finish closes the burst: the CME scan of L.
func (d *Microburst) finish(end int64) {
	flows := d.l
	d.l = map[packet.FlowKey]uint64{}
	d.active = false
	d.reports = append(d.reports, BurstReport{
		Start: d.start, End: end, Flows: flows, Truncated: d.overflowed,
	})
	d.emit(Alert{
		Detector: "microburst", Ts: end,
		Info: fmt.Sprintf("burst %d-%d ns, %d culprit flows", d.start, end, len(flows)),
	})
}

// Tick closes a burst left open at end of trace.
func (d *Microburst) Tick(now int64) {
	if d.active && now > d.start {
		d.finish(now)
	}
}

// Reports returns completed burst reports.
func (d *Microburst) Reports() []BurstReport { return d.reports }
