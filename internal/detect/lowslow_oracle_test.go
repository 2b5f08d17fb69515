package detect

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/trace"
)

// mapLowSlow is the LowSlow detector as it stood before its flow state
// moved into lsTable (DESIGN.md §18): flows in a Go map of *mapLSFlow,
// probed with a freshly computed key hash, 64-bit counters, and its own
// stale-Tick guard. Kept verbatim, test-only, as the oracle
// TestLowSlowMatchesMapOracle diffs the live detector against — the way
// snapshotKV (PR 13) and the thread heap (PR 14) were kept.
type mapLowSlow struct {
	alertBuf
	cfg   LowSlowConfig
	hooks Hooks
	wheel *host.TimingWheel[packet.FlowKey]
	flows map[packet.FlowKey]*mapLSFlow
	// exhaust groups idle-established flows by (victim, source /24).
	exhaust map[lsGroup]*lsGroupState

	// counters for the experiment harness / bench
	Pinned    uint64 // flows pinned at SYN
	Expiries  uint64 // wheel entries examined on Advance
	Confirmed uint64 // flows confirmed as low-and-slow
}

// mapLSFlow is the per-flow accumulator, keyed by canonical session key.
type mapLSFlow struct {
	client      packet.Addr // SYN sender
	victim      packet.Addr // SYN receiver
	firstTs     int64
	lastTs      int64
	established bool
	closed      bool // FIN or RST seen: a finishing flow is not low-and-slow
	clientData  int  // client data packets
	clientTiny  int  // ... of which sub-TinyPayload slivers
	clientAcks  int  // client payload-free ACKs after establishment
	serverData  int  // server data packets
	alerted     bool
	scheduled   bool // a live wheel entry exists for this flow
}

// newMapLowSlow builds the detector.
func newMapLowSlow(cfg LowSlowConfig) *mapLowSlow {
	cfg = cfg.withDefaults()
	return &mapLowSlow{
		cfg:     cfg,
		hooks:   cfg.Hooks,
		wheel:   host.NewTimingWheel[packet.FlowKey](cfg.WheelSlots, cfg.WheelTickNs),
		flows:   make(map[packet.FlowKey]*mapLSFlow),
		exhaust: make(map[lsGroup]*lsGroupState),
	}
}

// SetHooks rewires the detector's control-loop hooks. The platform calls
// this during construction so Tick-driven unpins and blacklists reach the
// FlowCache and the switch without the caller having to thread the
// platform into the detector config.
func (d *mapLowSlow) SetHooks(h Hooks) {
	if h != nil {
		d.hooks = h
	}
}

// Name implements Detector.
func (d *mapLowSlow) Name() string { return "lowslow" }

// Wheel exposes the idle-deadline wheel (cost reporting, tests).
func (d *mapLowSlow) Wheel() *host.TimingWheel[packet.FlowKey] { return d.wheel }

// OnPacket implements Detector.
func (d *mapLowSlow) OnPacket(p *packet.Packet, rec *flowcache.Record, _ snic.Ctx) Reaction {
	if !p.IsTCP() {
		return Reaction{}
	}
	k := p.Key()
	f := d.flows[k]

	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		if f == nil {
			f = &mapLSFlow{
				client: p.Tuple.SrcIP, victim: p.Tuple.DstIP,
				firstTs: p.Ts, lastTs: p.Ts,
			}
			d.flows[k] = f
		}
		if rec != nil {
			rec.State |= stateSYNSeen
		}
		if !f.scheduled {
			f.scheduled = true
			d.wheel.Schedule(k.Hash(), p.Ts+d.cfg.IdleNs, k)
		}
		d.Pinned++
		// Pin at SYN: the record must survive replacement while the flow
		// plays dead — that longevity is the detection signal.
		return Reaction{Pin: true, ExtraCycles: 30}
	}
	if f == nil {
		return Reaction{ExtraCycles: 5}
	}

	fromClient := p.Tuple.SrcIP == f.client
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
			f.clientData++
			if int(p.PayloadLen) <= d.cfg.TinyPayload {
				f.clientTiny++
			}
		} else {
			f.serverData++
		}
	} else if fromClient && wasEstablished && p.Flags.Has(packet.FlagACK) {
		f.clientAcks++
	}
	f.lastTs = p.Ts
	return Reaction{ExtraCycles: 8}
}

// Tick advances the idle wheel and classifies every expired flow — the
// Advance-driven confirmation pass.
func (d *mapLowSlow) Tick(now int64) {
	if now < d.wheel.Now() {
		// Ticks can arrive from more than one cadence source (packet-driven
		// and wall-driven); a stale one is a no-op, not a panic.
		return
	}
	for _, e := range d.wheel.Advance(now) {
		d.Expiries++
		k := e.Payload
		f := d.flows[k]
		if f == nil {
			continue
		}
		f.scheduled = false

		if f.closed || f.alerted {
			// Finished (or already confirmed) flows leave the tracker.
			delete(d.flows, k)
			continue
		}
		if !f.established {
			// Half-open and idle: not this detector's attack (a SYN flood
			// trips volumetric counters instead). Release the pin.
			d.hooks.Unpin(k)
			delete(d.flows, k)
			continue
		}

		if f.lastTs+d.cfg.IdleNs <= e.Deadline {
			// Established and idle for a full deadline: connection
			// accretion. Count it against its (victim, /24) group.
			d.expireIdle(k, f, e.Deadline)
			continue
		}

		// Still active: check the drip signatures, then re-arm.
		if d.classifyDrip(k, f, e.Deadline) {
			continue
		}
		f.scheduled = true
		d.wheel.Schedule(k.Hash(), f.lastTs+d.cfg.IdleNs, k)
	}
}

// classifyDrip fires the slow-post/slow-read signatures on a long-lived
// active flow. Returns true when the flow was confirmed and removed.
func (d *mapLowSlow) classifyDrip(k packet.FlowKey, f *mapLSFlow, now int64) bool {
	if f.lastTs-f.firstTs < d.cfg.MinAgeNs {
		return false
	}
	switch {
	case f.clientTiny >= d.cfg.MinDrips && f.clientData-f.clientTiny <= 1:
		// Every client data segment after (at most) one header is a
		// sliver: slow-post (or slowloris — header trickles look identical
		// on the wire; both hold a worker).
		d.confirm(k, f, now, "slow-post",
			"byte-at-a-time request body under the rate threshold")
		return true
	case f.clientAcks >= d.cfg.MinDrips && f.serverData > 0 && f.clientData <= 1:
		// The client only ever dribbles window updates against server
		// data: slow-read.
		d.confirm(k, f, now, "slow-read",
			"receive-window drip against outstanding server data")
		return true
	}
	return false
}

// expireIdle books an idle-established flow against its exhaustion group
// and confirms the group once it crosses the threshold.
func (d *mapLowSlow) expireIdle(k packet.FlowKey, f *mapLSFlow, now int64) {
	g := lsGroup{victim: f.victim, block: block24(f.client)}
	gs := d.exhaust[g]
	if gs == nil {
		gs = &lsGroupState{}
		d.exhaust[g] = gs
	}
	gs.idle++
	switch {
	case gs.alerted:
		// The block is already condemned: every further idle flow from it
		// is confirmed immediately.
		d.confirm(k, f, now, "conn-exhaust", "idle flow from blacklisted /24")
	case gs.idle >= d.cfg.ExhaustThreshold:
		gs.alerted = true
		d.Confirmed++
		d.emit(Alert{
			Detector: "conn-exhaust", Ts: now,
			Attacker: g.block, Victim: g.victim, Flow: k,
			Info: "sustained sub-threshold connection accretion from /24",
		})
		d.hooks.Blacklist(f.client)
		d.hooks.Unpin(k)
		delete(d.flows, k)
	default:
		// Below threshold: release the pin (the flow stays observable via
		// its record if it wakes) but keep the accumulator out of the
		// table — an idle benign flow must not hold budget forever.
		d.hooks.Unpin(k)
		delete(d.flows, k)
	}
}

// confirm emits the alert and pushes the control-loop reactions.
func (d *mapLowSlow) confirm(k packet.FlowKey, f *mapLSFlow, now int64, label, info string) {
	f.alerted = true
	d.Confirmed++
	d.emit(Alert{
		Detector: label, Ts: now,
		Attacker: f.client, Victim: f.victim, Flow: k,
		Info: info,
	})
	d.hooks.Blacklist(f.client)
	d.hooks.Unpin(k)
	delete(d.flows, k)
}

// lsRig is one detector behind its own FlowCache, wired the way the
// platform wires it: reactions pin and unpin the cache, hook calls are
// applied to it and logged in order.
type lsRig struct {
	cache *flowcache.Cache
	det   Detector
	calls []string // ordered Unpin / Blacklist / Whitelist hook calls
}

func (r *lsRig) Unpin(k packet.FlowKey) {
	r.calls = append(r.calls, "unpin "+k.String())
	r.cache.Unpin(k)
}
func (r *lsRig) Whitelist(k packet.FlowKey) { r.calls = append(r.calls, "whitelist "+k.String()) }
func (r *lsRig) Blacklist(a packet.Addr)    { r.calls = append(r.calls, "blacklist "+a.String()) }

func (r *lsRig) onPacket(p *packet.Packet) (Reaction, flowcache.Result) {
	rec, res := r.cache.Process(p)
	re := r.det.OnPacket(p, rec, snic.Ctx{})
	if re.Pin {
		r.cache.Pin(p.Key())
	}
	if re.Unpin {
		r.cache.Unpin(p.Key())
	}
	return re, res
}

// mergeByTs interleaves collected traces in timestamp order.
func mergeByTs(streams ...packet.Stream) []packet.Packet {
	var pkts []packet.Packet
	for _, s := range streams {
		pkts = append(pkts, packet.Collect(s)...)
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Ts < pkts[j].Ts })
	return pkts
}

// TestLowSlowMatchesMapOracle drives the table-backed LowSlow and the
// map-backed detector it replaced over the same packets, each through its
// own FlowCache, and requires every observable to agree packet by packet:
// the Reaction, the ordered hook calls, the alerts, the counters — and,
// at the end, the tracked flow set itself.
func TestLowSlowMatchesMapOracle(t *testing.T) {
	background := func(seed uint64, flows int, pps float64, durNs int64) packet.Stream {
		return trace.NewWorkload(trace.WorkloadConfig{
			Seed: seed, Flows: flows, ZipfS: 1.05, PacketRate: pps,
			Duration: durNs, MeanBurst: 3, UDPFraction: 0.12,
		}).Stream()
	}
	scenarios := []struct {
		name    string
		cfg     LowSlowConfig
		rowBits int
		pkts    []packet.Packet
		// wantAlert names an alert the scenario must raise ("" = none).
		wantAlert string
		// oversubscribed scenarios must produce record-less punts and
		// re-inserted records of flows the detector is still tracking.
		oversubscribed bool
	}{
		{name: "slowloris", rowBits: 10, wantAlert: "slow-post", cfg: LowSlowConfig{ExhaustThreshold: 1 << 20},
			pkts: packet.Collect(trace.Slowloris(trace.SlowlorisConfig{Seed: 3, Connections: 20, TrickleGap: 100e6, Duration: 3e9}).Stream())},
		{name: "slow-read", rowBits: 10, wantAlert: "slow-read", cfg: LowSlowConfig{ExhaustThreshold: 1 << 20},
			pkts: packet.Collect(trace.SlowRead(trace.SlowReadConfig{Seed: 3, Connections: 10, DripGap: 100e6, Duration: 3e9}).Stream())},
		{name: "slow-post", rowBits: 10, wantAlert: "slow-post", cfg: LowSlowConfig{ExhaustThreshold: 1 << 20},
			pkts: packet.Collect(trace.SlowPost(trace.SlowPostConfig{Seed: 3, Connections: 12, ByteGap: 100e6, Duration: 3e9}).Stream())},
		{name: "conn-exhaust", rowBits: 10, wantAlert: "conn-exhaust", cfg: LowSlowConfig{IdleNs: 200e6, ExhaustThreshold: 16},
			pkts: packet.Collect(trace.ConnExhaust(trace.ConnExhaustConfig{Seed: 3, Connections: 120, ConnGap: 10e6}).Stream())},
		{name: "benign-mix", rowBits: 10,
			pkts: mergeByTs(
				background(5, 4000, 0.05e6, 1500e6),
				trace.BruteForce(trace.BruteForceConfig{Seed: 3, Attackers: 4, AttemptsPerAttacker: 5, LegitClients: 3}).Stream())},
		// 64 rows x 12 buckets under ~20k flows, every TCP flow pinned at
		// its SYN: rows fill with pins, inserts punt, unpinned records are
		// evicted under flows the detector still tracks.
		{name: "churn-like", rowBits: 6, wantAlert: "conn-exhaust", oversubscribed: true,
			cfg: LowSlowConfig{IdleNs: 150e6, MinAgeNs: 300e6, ExhaustThreshold: 16},
			pkts: mergeByTs(
				background(7, 20000, 0.1e6, 1500e6),
				trace.ConnExhaust(trace.ConnExhaustConfig{Seed: 7, Connections: 200, ConnGap: 4e6, Start: 50e6}).Stream(),
				trace.SlowPost(trace.SlowPostConfig{Seed: 7, Connections: 6, ByteGap: 40e6, Duration: 1200e6}).Stream())},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			newCache := func() *flowcache.Cache {
				cfg := flowcache.DefaultConfig(sc.rowBits)
				cfg.RingEntries = 1 << 18
				return flowcache.New(cfg)
			}
			live, oracle := NewLowSlow(sc.cfg), newMapLowSlow(sc.cfg)
			a, b := &lsRig{cache: newCache(), det: live}, &lsRig{cache: newCache(), det: oracle}
			live.SetHooks(a)
			oracle.SetHooks(b)

			var alerts []Alert
			compare := func(when string) {
				t.Helper()
				if !reflect.DeepEqual(a.calls, b.calls) {
					t.Fatalf("%s: hook calls diverge:\n table %v\n map   %v", when, tailOf(a.calls), tailOf(b.calls))
				}
				if !reflect.DeepEqual(live.Pending(), oracle.Pending()) {
					t.Fatalf("%s: alerts diverge:\n table %v\n map   %v", when, live.Pending(), oracle.Pending())
				}
				if live.Pinned != oracle.Pinned || live.Expiries != oracle.Expiries || live.Confirmed != oracle.Confirmed {
					t.Fatalf("%s: counters diverge: table %d/%d/%d, map %d/%d/%d", when,
						live.Pinned, live.Expiries, live.Confirmed, oracle.Pinned, oracle.Expiries, oracle.Confirmed)
				}
				if live.flows.len() != len(oracle.flows) || live.wheel.Len() != oracle.wheel.Len() {
					t.Fatalf("%s: %d flows / %d wheel entries tracked, map %d / %d", when,
						live.flows.len(), live.wheel.Len(), len(oracle.flows), oracle.wheel.Len())
				}
				a.calls, b.calls = a.calls[:0], b.calls[:0]
			}
			tick := func(now int64) {
				live.Tick(now)
				oracle.Tick(now)
				compare(fmt.Sprintf("tick %d", now))
				alerts = append(alerts, live.Drain()...)
				oracle.Drain()
			}

			const tickNs = 10e6
			var punts, reinserts int
			next := int64(0)
			for i := range sc.pkts {
				p := &sc.pkts[i]
				for ; p.Ts >= next; next += tickNs {
					tick(next)
				}
				_, tracked := oracle.flows[p.Key()]
				ra, resA := a.onPacket(p)
				rb, resB := b.onPacket(p)
				if ra != rb || resA != resB {
					t.Fatalf("packet %d (%v flags %v): table %+v %+v, map %+v %+v", i, p.Tuple, p.Flags, ra, resA, rb, resB)
				}
				if resB.Outcome == flowcache.HostPunt && p.IsTCP() {
					punts++
				}
				if tracked && resB.Outcome == flowcache.Miss {
					reinserts++
				}
			}
			compare("end of stream")
			// Run the clock on until every deadline and its re-armed
			// successors have fired, a stale tick thrown in.
			for end := next + 20*live.cfg.IdleNs; next <= end; next += tickNs {
				tick(next)
			}
			tick(next - 5*tickNs)

			// The tracked set itself, flow by flow.
			for k, of := range oracle.flows {
				f := live.flows.get(k.Hash(), k)
				if f == nil {
					t.Fatalf("flow %v tracked by the map, not by the table", k)
				}
				client, victim := f.endpoints(k)
				got := mapLSFlow{
					client: client, victim: victim, firstTs: f.firstTs, lastTs: f.lastTs,
					established: f.established, closed: f.closed, scheduled: f.scheduled,
					clientData: int(f.clientData), clientTiny: int(f.clientTiny),
					clientAcks: int(f.clientAcks), serverData: int(f.serverData),
				}
				if got != *of {
					t.Fatalf("flow %v: table %+v, map %+v", k, got, *of)
				}
			}

			labels := alertLabels(alerts)
			if sc.wantAlert != "" && labels[sc.wantAlert] == 0 {
				t.Errorf("scenario raised %v, want a %s alert", labels, sc.wantAlert)
			}
			if sc.wantAlert == "" && len(alerts) != 0 {
				t.Errorf("benign scenario raised %v", labels)
			}
			if live.Pinned == 0 || live.Expiries == 0 {
				t.Errorf("scenario exercised nothing: %d pins, %d expiries", live.Pinned, live.Expiries)
			}
			if sc.oversubscribed && (punts == 0 || reinserts == 0) {
				t.Errorf("oversubscribed scenario produced %d record-less TCP punts and %d re-inserts of tracked flows, want both", punts, reinserts)
			}
			t.Logf("%d packets, %d pins, %d expiries, %d confirmed, %d punts, %d re-inserts, alerts %v",
				len(sc.pkts), live.Pinned, live.Expiries, live.Confirmed, punts, reinserts, labels)
		})
	}
}

func tailOf(s []string) []string {
	if len(s) > 6 {
		return s[len(s)-6:]
	}
	return s
}
