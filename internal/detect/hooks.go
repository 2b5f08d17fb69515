package detect

import "smartwatch/internal/packet"

// Hooks lets detectors request control-loop actions outside the packet
// path (timer-driven unpins, blacklist installs from Tick work). The
// platform in internal/core implements it against the FlowCache and the
// P4 switch; tests use NopHooks.
type Hooks interface {
	// Unpin releases a pinned FlowCache record.
	Unpin(k packet.FlowKey)
	// Whitelist marks a flow benign at the switch and releases its pin.
	Whitelist(k packet.FlowKey)
	// Blacklist installs a drop rule for the source at the switch.
	Blacklist(a packet.Addr)
}

// NopHooks discards all requests.
type NopHooks struct{}

// Unpin implements Hooks.
func (NopHooks) Unpin(packet.FlowKey) {}

// Whitelist implements Hooks.
func (NopHooks) Whitelist(packet.FlowKey) {}

// Blacklist implements Hooks.
func (NopHooks) Blacklist(packet.Addr) {}
