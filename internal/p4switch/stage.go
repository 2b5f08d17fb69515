package p4switch

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// SteerStage is the switch tier's per-packet step: it observes the packet
// for query refinement and leaves the switch's forwarding decision
// (whitelist fast path, blacklist drop, steer-to-sNIC) in the context's
// Verdict.
type SteerStage struct {
	SW *Switch
	// Tracker feeds EndInterval's refinement candidates; optional.
	Tracker *Tracker
}

// Handle steers one packet, canonicalising and hashing its tuple itself.
func (s *SteerStage) Handle(ctx *tier.Context) { s.apply(ctx, nil) }

// HandleKeyed is Handle for a driver that has filled in ctx.Key and
// ctx.Hash (the platform's identity prep, the cluster router): the
// whitelist is probed with them instead of canonicalising and hashing the
// tuple a second time.
func (s *SteerStage) HandleKeyed(ctx *tier.Context) { s.apply(ctx, &ctx.Key) }

func (s *SteerStage) apply(ctx *tier.Context, key *packet.FlowKey) {
	switch s.SW.process(ctx.Pkt, key, ctx.Hash, s.Tracker) {
	case Forward:
		ctx.Verdict = tier.ForwardDirect
	case Drop:
		ctx.Verdict = tier.DropAtSwitch
	}
}

// CloseInterval runs the switch's end-of-interval control work: close the
// query epoch against the tracker's refinement candidates and steer every
// fired subset until SRAM runs out (at which point coarser queries are
// needed — same stop rule as the inline control loop had). It returns the
// number of subsets steered. The platform calls it at each interval
// close, before the host flush.
func (s *Switch) CloseInterval(tr *Tracker) int {
	var candidates map[string][]packet.Addr
	if tr != nil {
		candidates = tr.Candidates()
	}
	fired := s.EndInterval(candidates)
	steered := 0
	for _, fk := range fired {
		if err := s.Steer(fk); err != nil {
			break // SRAM exhausted; coarser queries needed
		}
		steered++
	}
	return steered
}
