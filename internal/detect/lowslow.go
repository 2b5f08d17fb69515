package detect

import (
	"math"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/lpmap"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// LowSlow is the online low-and-slow detector (DESIGN.md §11.3): the
// in-line replacement for the post-hoc SlowlorisOffline analytic. It
// exploits exactly the two mechanisms the attacks target — every new TCP
// session is pinned in the FlowCache so its record survives replacement
// while the flow idles, and a per-flow idle deadline is scheduled on the
// host TimingWheel at SYN time. Advance-driven expiries then confirm the
// starvation signatures:
//
//   - slow-post / slowloris: an established, long-lived flow whose client
//     keeps sending data in sub-TinyPayload slivers and never finishes.
//   - slow-read: an established, long-lived flow whose client sends only
//     payload-free ACK drips while the server has data outstanding.
//   - conn-exhaust: established flows that simply go idle, accreting from
//     one /24 against one victim until the block's idle population
//     crosses ExhaustThreshold.
//
// Confirmed flows are unpinned (releasing the pins the attack was
// squatting on) and their sources blacklisted through Hooks, so alerts
// flow into the same whitelist/blacklist control loop as every other
// in-line detector. All bookkeeping is driven by packet order and wheel
// slot order — never map iteration — so alert emission is deterministic
// across batch sizes and shard counts.
//
// The per-flow accumulators live in an lpmap.Map at 3/4 fill, lsFlow
// inline in a 64-byte slot, keyed by the canonical session key and probed
// with the hash the platform already carries for the packet
// (snic.Ctx.FlowHash). The state does not live in the record: a flow is
// tracked from its SYN whether or not it has a record (punts, denied pins)
// and across evict-then-reinsert.
type LowSlow struct {
	alertBuf
	hooked
	cfg   LowSlowConfig
	wheel *host.TimingWheel[packet.FlowKey]
	flows *lpmap.Map[packet.FlowKey, lsFlow]
	// exhaust groups idle-established flows by (victim, source /24).
	exhaust map[lsGroup]lsGroupState

	// counters for the experiment harness / bench
	Pinned    uint64 // flows pinned at SYN
	Expiries  uint64 // wheel entries examined on Advance
	Confirmed uint64 // flows confirmed as low-and-slow
}

// LowSlowConfig parameterises the detector. The zero value selects
// defaults tuned for the injectors' timescales.
type LowSlowConfig struct {
	// IdleNs is the per-flow idle deadline scheduled at SYN and re-armed
	// while the flow stays active (default 500 ms).
	IdleNs int64
	// MinAgeNs is the minimum activity span before a drip signature may
	// fire (default 1 s) — young flows get the benefit of the doubt.
	MinAgeNs int64
	// MinDrips is the minimum number of drip packets (tiny data segments
	// or payload-free ACKs) before a drip signature fires (default 5).
	MinDrips int
	// TinyPayload is the largest payload (bytes) still counted as a drip
	// (default 8).
	TinyPayload int
	// ExhaustThreshold is the idle-established flow count per
	// (victim, /24) that confirms connection exhaustion (default 24).
	ExhaustThreshold int
	// WheelSlots / WheelTickNs size the idle-deadline timing wheel.
	WheelSlots  int
	WheelTickNs int64
}

// lsFlow is the per-flow accumulator, keyed by canonical session key. It
// is stored inline in the flow table's slots, so its size is the table's
// memory and its 40 bytes are what make a slot one cache line: the
// endpoints are read off the key (clientIsLo says which is which), and the
// drip counters are 32-bit and saturate (inc32), which leaves every
// signature as it was for any flow under 2^31 packets.
type lsFlow struct {
	firstTs     int64
	lastTs      int64
	clientData  int32 // client data packets
	clientTiny  int32 // ... of which sub-TinyPayload slivers
	clientAcks  int32 // client payload-free ACKs after establishment
	serverData  int32 // server data packets
	established bool
	closed      bool // FIN or RST seen: a finishing flow is not low-and-slow
	scheduled   bool // a live wheel entry exists for this flow
	clientIsLo  bool // the SYN sender is the key's Lo endpoint
}

// endpoints returns the SYN sender and receiver of the flow stored under k.
func (f *lsFlow) endpoints(k packet.FlowKey) (client, victim packet.Addr) {
	if f.clientIsLo {
		return k.LoIP, k.HiIP
	}
	return k.HiIP, k.LoIP
}

// inc32 counts one more packet, stopping at the top of the range.
func inc32(c *int32) {
	if *c < math.MaxInt32 {
		*c++
	}
}

// lsGroup identifies one connection-exhaustion aggregation bucket.
type lsGroup struct {
	victim packet.Addr
	block  packet.Addr // source /24 base
}

// lsGroupState is one group's tally, stored by value in LowSlow.exhaust.
type lsGroupState struct {
	idle    int // idle-established flows seen from this group
	alerted bool
}

// withDefaults fills the zero fields.
func (cfg LowSlowConfig) withDefaults() LowSlowConfig {
	if cfg.IdleNs <= 0 {
		cfg.IdleNs = 500e6
	}
	if cfg.MinAgeNs <= 0 {
		cfg.MinAgeNs = 1e9
	}
	if cfg.MinDrips <= 0 {
		cfg.MinDrips = 5
	}
	if cfg.TinyPayload <= 0 {
		cfg.TinyPayload = 8
	}
	if cfg.ExhaustThreshold <= 0 {
		cfg.ExhaustThreshold = 24
	}
	if cfg.WheelSlots <= 0 {
		cfg.WheelSlots = 256
	}
	if cfg.WheelTickNs <= 0 {
		cfg.WheelTickNs = cfg.IdleNs / int64(cfg.WheelSlots/8)
	}
	return cfg
}

// lsFlowsMin sizes the initial flow table (64 slots, 4 KB): small,
// because every experiment run builds its own detector and most track a
// few flows.
const lsFlowsMin = 48

// NewLowSlow builds the detector.
func NewLowSlow(cfg LowSlowConfig) *LowSlow {
	cfg = cfg.withDefaults()
	return &LowSlow{
		cfg:     cfg,
		wheel:   host.NewTimingWheel[packet.FlowKey](cfg.WheelSlots, cfg.WheelTickNs),
		flows:   lpmap.New[packet.FlowKey, lsFlow](lpmap.ThreeQuarters, lsFlowsMin),
		exhaust: make(map[lsGroup]lsGroupState),
	}
}

// Name implements Detector.
func (d *LowSlow) Name() string { return "lowslow" }

// Wheel exposes the idle-deadline wheel (cost reporting, tests).
func (d *LowSlow) Wheel() *host.TimingWheel[packet.FlowKey] { return d.wheel }

// WheelDepth is the number of pending idle deadlines (metrics).
func (d *LowSlow) WheelDepth() int { return d.wheel.Len() }

func block24(a packet.Addr) packet.Addr { return a &^ 0xff }

// OnPacket implements Detector.
func (d *LowSlow) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *LowSlow) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	if !p.IsTCP() {
		return 0, 0
	}
	var k packet.FlowKey
	h := identity(p, rec, ctx, &k)
	f := d.flows.Get(h, k)

	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		if f == nil {
			f = d.flows.Put(h, k)
			f.clientIsLo = p.Tuple.SrcIP == k.LoIP
			f.firstTs, f.lastTs = p.Ts, p.Ts
		}
		if rec != nil {
			rec.State |= stateSYNSeen
		}
		if !f.scheduled {
			f.scheduled = true
			d.wheel.Schedule(h, p.Ts+d.cfg.IdleNs, k)
		}
		d.Pinned++
		// Pin at SYN: the record must survive replacement while the flow
		// plays dead — that longevity is the detection signal.
		return VPin, 30
	}
	if f == nil {
		return 0, 5
	}

	client, _ := f.endpoints(k)
	fromClient := p.Tuple.SrcIP == client
	wasEstablished := f.established
	switch {
	case p.Flags.Has(packet.FlagFIN) || p.Flags.Has(packet.FlagRST):
		f.closed = true
	case p.Flags.Has(packet.FlagSYN): // SYN-ACK
		if rec != nil {
			rec.State |= stateSYNACKSeen
		}
	case p.Flags.Has(packet.FlagACK) && !wasEstablished && fromClient:
		f.established = true
		if rec != nil {
			rec.State |= stateEstablished
		}
	}
	if p.PayloadLen > 0 {
		if rec != nil {
			rec.State |= stateDataSeen
		}
		if fromClient {
			inc32(&f.clientData)
			if int(p.PayloadLen) <= d.cfg.TinyPayload {
				inc32(&f.clientTiny)
			}
		} else {
			inc32(&f.serverData)
		}
	} else if fromClient && wasEstablished && p.Flags.Has(packet.FlagACK) {
		inc32(&f.clientAcks)
	}
	f.lastTs = p.Ts
	return 0, 8
}

// Tick advances the idle wheel and classifies every expired flow — the
// Advance-driven confirmation pass. Ticks can arrive from more than one
// cadence source (packet-driven and wall-driven); the wheel answers a
// stale one with nothing.
func (d *LowSlow) Tick(now int64) {
	for _, e := range d.wheel.Advance(now) {
		d.Expiries++
		// The wheel entry was scheduled under the flow's hash.
		k, h := e.Payload, e.Key
		f := d.flows.Get(h, k)
		if f == nil {
			continue
		}
		f.scheduled = false

		if f.closed {
			// Finished flows leave the tracker and release their pin.
			d.unpin(k)
			d.flows.Del(h, k)
			continue
		}
		if !f.established {
			// Half-open and idle: not this detector's attack (a SYN flood
			// trips volumetric counters instead). Release the pin.
			d.unpin(k)
			d.flows.Del(h, k)
			continue
		}

		if f.lastTs+d.cfg.IdleNs <= e.Deadline {
			// Established and idle for a full deadline: connection
			// accretion. Count it against its (victim, /24) group.
			d.expireIdle(h, k, f, e.Deadline)
			continue
		}

		// Still active: check the drip signatures, then re-arm.
		if d.classifyDrip(h, k, f, e.Deadline) {
			continue
		}
		f.scheduled = true
		d.wheel.Schedule(h, f.lastTs+d.cfg.IdleNs, k)
	}
}

// classifyDrip fires the slow-post/slow-read signatures on a long-lived
// active flow. Returns true when the flow was confirmed and removed.
func (d *LowSlow) classifyDrip(h uint64, k packet.FlowKey, f *lsFlow, now int64) bool {
	if f.lastTs-f.firstTs < d.cfg.MinAgeNs {
		return false
	}
	switch {
	case int(f.clientTiny) >= d.cfg.MinDrips && f.clientData-f.clientTiny <= 1:
		// Every client data segment after (at most) one header is a
		// sliver: slow-post (or slowloris — header trickles look identical
		// on the wire; both hold a worker).
		d.confirm(h, k, f, now, "slow-post",
			"byte-at-a-time request body under the rate threshold")
		return true
	case int(f.clientAcks) >= d.cfg.MinDrips && f.serverData > 0 && f.clientData <= 1:
		// The client only ever dribbles window updates against server
		// data: slow-read.
		d.confirm(h, k, f, now, "slow-read",
			"receive-window drip against outstanding server data")
		return true
	}
	return false
}

// expireIdle books an idle-established flow against its exhaustion group
// and confirms the group once it crosses the threshold. The flow leaves
// the table on every path.
func (d *LowSlow) expireIdle(h uint64, k packet.FlowKey, f *lsFlow, now int64) {
	client, victim := f.endpoints(k)
	g := lsGroup{victim: victim, block: block24(client)}
	gs := d.exhaust[g]
	gs.idle++
	switch {
	case gs.alerted:
		// The block is already condemned: every further idle flow from it
		// is confirmed immediately.
		d.confirm(h, k, f, now, "conn-exhaust", "idle flow from blacklisted /24")
	case gs.idle >= d.cfg.ExhaustThreshold:
		gs.alerted = true
		d.Confirmed++
		d.emit(Alert{
			Detector: "conn-exhaust", Ts: now,
			Attacker: g.block, Victim: g.victim, Flow: k,
			Info: "sustained sub-threshold connection accretion from /24",
		})
		d.blacklist(client)
		d.unpin(k)
		d.flows.Del(h, k)
	default:
		// Below threshold: release the pin (the flow stays observable via
		// its record if it wakes) but keep the accumulator out of the
		// table — an idle benign flow must not hold budget forever.
		d.unpin(k)
		d.flows.Del(h, k)
	}
	d.exhaust[g] = gs
}

// confirm emits the alert, pushes the control-loop reactions and drops
// the flow from the table (f is dead after the del).
func (d *LowSlow) confirm(h uint64, k packet.FlowKey, f *lsFlow, now int64, label, info string) {
	client, victim := f.endpoints(k)
	d.Confirmed++
	d.emit(Alert{
		Detector: label, Ts: now,
		Attacker: client, Victim: victim, Flow: k,
		Info: info,
	})
	d.blacklist(client)
	d.unpin(k)
	d.flows.Del(h, k)
}
