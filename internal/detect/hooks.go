package detect

import "smartwatch/internal/packet"

// Hooks lets detectors request control-loop actions outside their verdicts
// (timer-driven unpins, blacklist installs when a source is judged). The
// platform in internal/core implements it against the FlowCache and the
// P4 switch and is the only source of a detector's hooks: core.New hands
// itself to every detector that has a SetHooks method.
type Hooks interface {
	// Unpin releases a pinned FlowCache record.
	Unpin(k packet.FlowKey)
	// Blacklist installs a drop rule for the source at the switch.
	Blacklist(a packet.Addr)
}

// hooked is embedded by the detectors that act outside their verdicts
// (ForgedRST, PortScan, Incomplete, LowSlow). Its zero value acts on
// nothing: a detector run without a platform unpins and blacklists
// nowhere.
type hooked struct{ hooks Hooks }

// SetHooks hands the detector the control loop it acts on outside its
// verdicts; nil acts on nothing. core.New calls it once, with the platform.
func (h *hooked) SetHooks(x Hooks) { h.hooks = x }

func (h *hooked) unpin(k packet.FlowKey) {
	if h.hooks != nil {
		h.hooks.Unpin(k)
	}
}

func (h *hooked) blacklist(a packet.Addr) {
	if h.hooks != nil {
		h.hooks.Blacklist(a)
	}
}
