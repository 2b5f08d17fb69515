// Package detect implements the fifteen attack detectors of the
// SmartWatch evaluation (Table 2): the in-line sNIC detectors (port scan,
// forged RST, DNS amplification, microbursts, worms, covert timing
// channels, website fingerprinting, certificate expiry), the Zeek-style
// host-assisted brute-force detectors (SSH, FTP, Kerberos), and the
// offline flow-log analytics (heavy hitters, heavy changes, cardinality,
// flow-size estimation, Slowloris).
//
// Every in-line detector implements Detector: it observes packets together
// with their FlowCache records, requests reactions (pinning, host punts,
// whitelisting, blacklisting), and emits Alerts. The platform in
// internal/core interprets the reactions against the cache, the host NFs
// and the switch control loop.
package detect

import (
	"fmt"
	"sort"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// Alert is one detection event.
type Alert struct {
	// Detector names the source detector.
	Detector string
	// Ts is the detection time (virtual ns).
	Ts int64
	// Attacker / Victim are the implicated endpoints (zero when not
	// applicable).
	Attacker, Victim packet.Addr
	// Flow is the implicated session (zero when the alert is host-level).
	Flow packet.FlowKey
	// Info is a short human-readable explanation.
	Info string
}

// String renders the alert.
func (a Alert) String() string {
	return fmt.Sprintf("[%s] t=%dns attacker=%s victim=%s %s", a.Detector, a.Ts, a.Attacker, a.Victim, a.Info)
}

// Reaction is what a detector asks the platform to do after one packet.
// The zero value requests nothing.
type Reaction struct {
	// Pin / Unpin the packet's flow record in the FlowCache.
	Pin, Unpin bool
	// ToHost forwards this packet to the host NF tier (SR-IOV port).
	ToHost bool
	// Whitelist asks the control loop to install a benign-flow entry at
	// the switch (and unpin the record).
	Whitelist bool
	// BlacklistSrc asks the control loop to drop this source at the
	// switch.
	BlacklistSrc bool
	// DropPacket consumes the packet (IPS block).
	DropPacket bool
	// ExtraCycles is the sNIC engine cost of the detector's work on this
	// packet (charged by the DES).
	ExtraCycles float64
}

// verdict is a Reaction's six requests as one flag byte. Every detector
// in this package decides a packet in a private inspect method that
// returns (verdict, cycles): two scalars Go returns in registers, where a
// seven-field Reaction is spilled to the stack by the callee and reloaded
// by the caller — once per detector per packet (DESIGN.md §18).
type verdict uint8

const (
	vPin verdict = 1 << iota
	vUnpin
	vToHost
	vWhitelist
	vBlacklistSrc
	vDrop
)

// expand builds the public Reaction from a verdict and its cycle cost.
func expand(v verdict, cycles float64) Reaction {
	return Reaction{
		Pin:          v&vPin != 0,
		Unpin:        v&vUnpin != 0,
		ToHost:       v&vToHost != 0,
		Whitelist:    v&vWhitelist != 0,
		BlacklistSrc: v&vBlacklistSrc != 0,
		DropPacket:   v&vDrop != 0,
		ExtraCycles:  cycles,
	}
}

// compress is expand's inverse, for Detectors implemented outside this
// package, which Chain can only reach through OnPacket.
func compress(r Reaction) (verdict, float64) {
	var v verdict
	if r.Pin {
		v |= vPin
	}
	if r.Unpin {
		v |= vUnpin
	}
	if r.ToHost {
		v |= vToHost
	}
	if r.Whitelist {
		v |= vWhitelist
	}
	if r.BlacklistSrc {
		v |= vBlacklistSrc
	}
	if r.DropPacket {
		v |= vDrop
	}
	return v, r.ExtraCycles
}

// inspector is the per-packet method every detector in this package
// carries; its public OnPacket is expand(d.inspect(...)) and nothing else.
// The method name is unexported, so no type outside the package can
// satisfy it.
type inspector interface {
	inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (verdict, float64)
}

// Detector is one in-line sNIC detector.
type Detector interface {
	// Name identifies the detector (Table 2 row).
	Name() string
	// OnPacket observes one packet with its FlowCache record (nil when
	// the packet was punted without a record) and the datapath context.
	OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction
	// Tick fires periodically (CME timers, interval work).
	Tick(now int64)
	// Drain returns and clears accumulated alerts.
	Drain() []Alert
}

// alertBuf is the common alert accumulator.
type alertBuf struct{ alerts []Alert }

func (b *alertBuf) emit(a Alert)     { b.alerts = append(b.alerts, a) }
func (b *alertBuf) Drain() []Alert   { out := b.alerts; b.alerts = nil; return out }
func (b *alertBuf) Pending() []Alert { return b.alerts }

// sortTick orders the alerts emitted since the buffer held n by flow key.
// A Tick that decides flows while walking a map calls it last, so one
// tick's alerts come out in the keys' order, never the map's.
func (b *alertBuf) sortTick(n int) {
	tick := b.alerts[n:]
	if len(tick) < 2 {
		return
	}
	sort.Slice(tick, func(i, j int) bool { return keyLess(tick[i].Flow, tick[j].Flow) })
}

// Chain runs several detectors as one, merging reactions.
type Chain struct {
	detectors []Detector
	// fast[i] is detectors[i]'s inspect method, nil for a Detector from
	// outside the package; resolved once, here, not per packet.
	fast []inspector
}

// NewChain bundles detectors.
func NewChain(ds ...Detector) *Chain {
	c := &Chain{detectors: ds, fast: make([]inspector, len(ds))}
	for i, d := range ds {
		c.fast[i], _ = d.(inspector)
	}
	return c
}

// Name implements Detector.
func (c *Chain) Name() string { return "chain" }

// OnPacket fans out to every detector. The platform calls it for every
// packet, configured detectors or none; the empty chain is answered here
// rather than behind inspect's frame and expand (7 % of a surge pass).
func (c *Chain) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	if len(c.fast) == 0 {
		return Reaction{}
	}
	return expand(c.inspect(p, rec, ctx))
}

// inspect ORs the detectors' verdicts and adds their cycles, in chain
// order, without leaving registers; the one Reaction is built by the
// caller at the end.
func (c *Chain) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (verdict, float64) {
	var (
		v      verdict
		cycles float64
	)
	for i, in := range c.fast {
		var (
			dv verdict
			dc float64
		)
		if in != nil {
			dv, dc = in.inspect(p, rec, ctx)
		} else {
			dv, dc = compress(c.detectors[i].OnPacket(p, rec, ctx))
		}
		v |= dv
		cycles += dc
	}
	return v, cycles
}

// Tick fans out.
func (c *Chain) Tick(now int64) {
	for _, d := range c.detectors {
		d.Tick(now)
	}
}

// Drain gathers all alerts.
func (c *Chain) Drain() []Alert {
	var out []Alert
	for _, d := range c.detectors {
		out = append(out, d.Drain()...)
	}
	return out
}

// Detectors exposes the chained detectors.
func (c *Chain) Detectors() []Detector { return c.detectors }

// Flow-state bit assignments shared by the TCP-tracking detectors. The
// FlowCache Record.State field is a detector-owned bitfield; these bits
// are the convention used across this package.
const (
	stateSYNSeen uint64 = 1 << iota
	stateSYNACKSeen
	stateEstablished
	stateDataSeen
	stateRSTSeen
	stateFINSeen
	stateOutcomeReported // handshake outcome already counted by port scan
	stateAuthPending     // brute-force: waiting for host auth verdict
	stateAuthFailed
	stateAuthOK
)
