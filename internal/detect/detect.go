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

// Verdict is a Reaction's six requests as one flag byte. Every detector
// in this package decides a packet in a private inspect method that
// returns (Verdict, cycles), and Chain.Inspect hands the platform the same
// two scalars: Go returns them in registers, where a seven-field Reaction
// is spilled to the stack by the callee and reloaded by the caller
// (DESIGN.md §18.2).
type Verdict uint8

// The Verdict bits, one per Reaction flag.
const (
	VPin Verdict = 1 << iota
	VUnpin
	VToHost
	VWhitelist
	VBlacklistSrc
	VDrop
)

// expand builds the public Reaction from a verdict and its cycle cost.
func expand(v Verdict, cycles float64) Reaction {
	return Reaction{
		Pin:          v&VPin != 0,
		Unpin:        v&VUnpin != 0,
		ToHost:       v&VToHost != 0,
		Whitelist:    v&VWhitelist != 0,
		BlacklistSrc: v&VBlacklistSrc != 0,
		DropPacket:   v&VDrop != 0,
		ExtraCycles:  cycles,
	}
}

// compress is expand's inverse, for Detectors implemented outside this
// package, which Chain can only reach through OnPacket.
func compress(r Reaction) (Verdict, float64) {
	var v Verdict
	if r.Pin {
		v |= VPin
	}
	if r.Unpin {
		v |= VUnpin
	}
	if r.ToHost {
		v |= VToHost
	}
	if r.Whitelist {
		v |= VWhitelist
	}
	if r.BlacklistSrc {
		v |= VBlacklistSrc
	}
	if r.DropPacket {
		v |= VDrop
	}
	return v, r.ExtraCycles
}

// inspector is the per-packet method every detector in this package
// carries; its public OnPacket is expand(d.inspect(...)) and nothing else.
// The method name is unexported, so no type outside the package can
// satisfy it.
type inspector interface {
	inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64)
}

// identity writes the packet's canonical session key to k and returns its
// hash, as FiveTuple.Identity does. The platform's drive has already
// derived both for the FlowCache lookup: the key is the record's and the
// hash rides in ctx.FlowHash. A punt (no record) or a caller that carries
// no hash (0) derives them here.
func identity(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx, k *packet.FlowKey) uint64 {
	if rec != nil && ctx.FlowHash != 0 {
		*k = rec.Key
		return ctx.FlowHash
	}
	return p.Tuple.Identity(k)
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

// OnPacket implements Detector: Inspect as a Reaction.
func (c *Chain) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(c.Inspect(p, rec, ctx))
}

// Inspect fans out to every detector and returns the merged verdict and
// cycle cost. The platform calls it for every packet, configured detectors
// or none, and acts on the bits. It inlines into the caller, so the empty
// chain is answered there, before inspect's frame (7 % of a surge pass,
// DESIGN.md §18.4).
func (c *Chain) Inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (v Verdict, cycles float64) {
	if len(c.fast) != 0 {
		v, cycles = c.inspect(p, rec, ctx)
	}
	return v, cycles
}

// inspect ORs the detectors' verdicts and adds their cycles, in chain
// order, without leaving registers.
func (c *Chain) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	var (
		v      Verdict
		cycles float64
	)
	for i, in := range c.fast {
		var (
			dv Verdict
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
