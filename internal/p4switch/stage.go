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

// NewSteerStage assembles a switch tier: a switch sized by cfg
// (DefaultConfig when cfg.SRAMBytes is 0) with queries installed, and the
// tracker of their refinement candidates. It panics when the switch
// refuses the queries, as the platform and cluster constructors do on any
// structural misconfiguration.
func NewSteerStage(cfg Config, queries []Query) *SteerStage {
	if cfg.SRAMBytes == 0 {
		cfg = DefaultConfig()
	}
	sw := New(cfg)
	if len(queries) > 0 {
		if err := sw.InstallQueries(queries); err != nil {
			panic(err)
		}
	}
	return &SteerStage{SW: sw, Tracker: NewTracker(queries, 0)}
}

// Handle steers one packet, canonicalising and hashing its tuple itself.
func (s *SteerStage) Handle(ctx *tier.Context) {
	setVerdict(ctx, s.SW.process(ctx.Pkt, nil, 0, s.Tracker))
}

// Classify is the side-effect-free half of steering a packet. A driver
// may classify packets ahead of applying them as long as no
// InstallQueries, Steer or Unsteer runs in between.
func (s *SteerStage) Classify(p *packet.Packet) Class { return s.SW.classify(p) }

// Apply is the rest of steering a packet Classify has classified: Handle
// for a driver that has filled in ctx.Key and ctx.Hash (the platform's
// identity prep, the cluster router), so the whitelist is probed with them
// instead of canonicalising and hashing the tuple a second time.
func (s *SteerStage) Apply(ctx *tier.Context, c Class) {
	setVerdict(ctx, s.SW.apply(ctx.Pkt, &ctx.Key, ctx.Hash, s.Tracker, c))
}

func setVerdict(ctx *tier.Context, a Action) {
	switch a {
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
