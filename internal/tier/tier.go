// Package tier holds what the SmartWatch tiers share: the per-packet
// Context the switch tier steers on, the Verdict it leaves there, and the
// control-plane Bus. The packet path itself is four direct calls in
// internal/core (ingest accounting, steer, FlowCache + detectors, host NF
// delivery; DESIGN.md §8); cross-tier control actions (detector verdicts,
// interval flushes, mode switchovers, whitelist/blacklist installs) travel
// as typed events on the Bus instead of struct-to-struct calls, so a tier
// subscribes to the kinds it serves and anything can observe them.
//
// The package knows nothing about internal/core or internal/detect: the
// dependency arrows all point here, never back out.
package tier

import "smartwatch/internal/packet"

// Verdict is the switch tier's decision about one packet. Continue sends
// it on to the sNIC; anything else ends its path at the switch.
type Verdict uint8

// Verdicts.
const (
	// Continue passes the packet to the sNIC.
	Continue Verdict = iota
	// ForwardDirect bypasses the remaining tiers entirely (switch fast
	// path for whitelisted/unsteered traffic).
	ForwardDirect
	// DropAtSwitch discards the packet at the switch (blacklist hit).
	DropAtSwitch
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case ForwardDirect:
		return "forward-direct"
	case DropAtSwitch:
		return "drop-at-switch"
	default:
		return "continue"
	}
}

// Context is one packet at the switch tier: what the steer stage reads
// (Pkt, and Hash / Key so the whitelist is probed without canonicalising
// the tuple a second time) and what it writes (Verdict). Drivers reuse
// contexts across packets, so nothing may retain a pointer into one.
type Context struct {
	// Pkt is the packet under processing.
	Pkt *packet.Packet
	// Verdict is the steer decision; Continue until the switch says
	// otherwise.
	Verdict Verdict
	// Hash and Key are the packet's flow hash and canonical key, set by
	// the driver after Reset (FiveTuple.Identity) and read-only from then
	// on. The FlowCache is probed with the same pair.
	Hash uint64
	Key  packet.FlowKey
}

// Reset prepares the context for a new packet, clearing every field.
func (c *Context) Reset(p *packet.Packet) {
	*c = Context{Pkt: p}
}
