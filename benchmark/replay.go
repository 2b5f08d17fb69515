package main

import (
	"fmt"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/tier"
)

// The layers below the session are reachable only through the platform's
// pull chain, so each is timed standalone on the exact packet sequence
// the traced run pushed through it, in chunks of vectorLen, with the
// control-plane events and pin reactions the traced run recorded applied
// at the same positions. Every replay proves it did the same work by
// matching the full run's counters; a mismatch fails the run.

// replayed holds the standalone layer times (total ns) and what the
// replays cost to validate.
type replayed struct {
	keyhashNs    int64
	steerNs      int64
	closeNs      int64 // switch interval closes
	closes       int64
	cacheNs      int64
	dispatchNs   int64
	dropPathNs   float64 // per dropped packet; 0 with too few drops to time
	nfDeliverNs  int64
	nfDeliveries int64
	errs         []string
}

func (rp *replayed) fail(format string, a ...any) {
	rp.errs = append(rp.errs, fmt.Sprintf(format, a...))
}

// chunkTimer times a loop in vectorLen chunks and records one span each.
type chunkTimer struct {
	tr    *tracer
	name  string
	start int64
	n     int
	total int64
}

func (ct *chunkTimer) begin() { ct.start, ct.n = ct.tr.now(), 0 }

func (ct *chunkTimer) end() {
	if ct.n == 0 {
		return
	}
	now := ct.tr.now()
	ct.tr.add(span{Name: ct.name, Start: ct.start, End: now, Parent: -1, Vec: -1, Calls: ct.n})
	ct.total += now - ct.start
	ct.n = 0
}

// step counts one packet and rolls the chunk over when it is full.
func (ct *chunkTimer) step() {
	if ct.n++; ct.n == vectorLen {
		ct.end()
		ct.begin()
	}
}

func replayLayers(in *inputs, tp *pass) *replayed {
	rp := &replayed{}
	tr, cfg, rep := tp.tr, tp.cfg, &tp.rep
	if tr.lost || uint64(len(tr.idx)) != rep.SNIC.Processed {
		rp.fail("tap saw %d datapath packets (lost track: %v), report says %d", len(tr.idx), tr.lost, rep.SNIC.Processed)
		return rp
	}

	// Flow identity of every offered packet (prepIdentity hashes before
	// steering), kept for nothing but the timing.
	ct := &chunkTimer{tr: tr, name: "packet.keyhash"}
	var sink uint64
	ct.begin()
	for i := range in.pkts {
		k := in.pkts[i].Key()
		sink ^= k.Hash()
		ct.step()
	}
	ct.end()
	rp.keyhashNs = ct.total
	_ = sink
	idx := tr.idx

	if cfg.EnableSwitch {
		rp.replaySwitch(in, tp, idx)
	}
	costs := rp.replayCache(tp)
	rp.replayEngine(tp, costs)
	rp.replayDeliver(tp)
	return rp
}

// replaySwitch drives a fresh switch with the offered packets, closing
// intervals and applying whitelist/blacklist events where the traced run
// did.
func (rp *replayed) replaySwitch(in *inputs, tp *pass, idx []int32) {
	tr, cfg := tp.tr, tp.cfg
	swCfg := cfg.Switch
	if swCfg.SRAMBytes == 0 {
		swCfg = p4switch.DefaultConfig()
	}
	sw := p4switch.New(swCfg)
	if err := sw.InstallQueries(cfg.Queries); err != nil {
		rp.fail("switch replay: %v", err)
		return
	}
	tracker := p4switch.NewTracker(cfg.Queries, 0)
	stage := &p4switch.SteerStage{SW: sw, Tracker: tracker}

	evs := tr.eventsOf(tier.KindWhitelist, tier.KindBlacklist)
	apply := func(e ctlEvent) {
		if e.kind == tier.KindWhitelist {
			_ = sw.Whitelist(e.key) // a full table only costs the fast path, as in core
		} else {
			sw.Blacklist(e.addr)
		}
	}

	nextInterval := cfg.IntervalNs
	closeInterval := func() {
		t0 := tr.now()
		sw.CloseInterval(tracker)
		t1 := tr.now()
		tr.add(span{Name: "p4switch.close_interval", Start: t0, End: t1, Parent: -1, Vec: -1})
		rp.closeNs += t1 - t0
		rp.closes++
		nextInterval += cfg.IntervalNs
	}
	ct := &chunkTimer{tr: tr, name: "p4switch.steer"}
	var ctx tier.Context
	tapped := 0
	ct.begin()
	for i := range in.pkts {
		p := &in.pkts[i]
		if p.Ts >= nextInterval || evs.tickDue(p.Ts) {
			ct.end()
			for evs.tickDue(p.Ts) {
				apply(evs.pop())
			}
			for p.Ts >= nextInterval {
				closeInterval()
			}
			ct.begin()
		}
		ctx.Reset(p)
		stage.Handle(&ctx)
		if tapped < len(idx) && int(idx[tapped]) == i {
			tapped++
			for evs.packetDue(tapped, false) {
				apply(evs.pop())
			}
		}
		ct.step()
	}
	ct.end()
	closeInterval() // Drain closes the interval in flight
	rp.steerNs = ct.total

	got, want := sw.Stats(), tp.rep.SwitchStats
	if got.Forwarded != want.Forwarded || got.Steered != want.Steered || got.Dropped != want.Dropped {
		rp.fail("switch replay forwarded/steered/dropped %d/%d/%d, full run %d/%d/%d",
			got.Forwarded, got.Steered, got.Dropped, want.Forwarded, want.Steered, want.Dropped)
	}
}

// replayCache drives a fresh FlowCache with the datapath packets, their
// pin reactions, the unpin events and the interval ring drains, and
// returns each packet's memory-operation cost for the engine replay.
func (rp *replayed) replayCache(tp *pass) []snic.Cost {
	tr, cfg := tp.tr, tp.cfg
	cache := flowcache.NewSharded(1, cfg.Cache, cfg.Controller)
	n := len(tr.idx)
	keys := make([]packet.FlowKey, n)
	hashes := make([]uint64, n)
	for j := range keys {
		keys[j] = tr.pkt(j).Key()
		hashes[j] = keys[j].Hash()
	}
	evs := tr.eventsOf(tier.KindWhitelist, tier.KindUnpin) // both end in cache.Unpin
	costs := make([]snic.Cost, n)
	var (
		acc          flowcache.BatchAcc
		scratch      []flowcache.Record
		nextInterval = cfg.IntervalNs
	)
	drain := func() {
		for _, r := range cache.Rings() {
			scratch = r.Drain(scratch[:0], 0)
		}
		nextInterval += cfg.IntervalNs
	}
	ct := &chunkTimer{tr: tr, name: "flowcache.process"}
	ct.begin()
	for j := range keys {
		p := tr.pkt(j)
		if p.Ts >= nextInterval || evs.tickDue(p.Ts) {
			ct.end()
			for evs.tickDue(p.Ts) {
				cache.Unpin(evs.pop().key)
			}
			for p.Ts >= nextInterval {
				drain() // the host's job in the full run; untimed here
			}
			ct.begin()
		}
		_, res := cache.ObserveProcessHashed(p, hashes[j], keys[j], &acc)
		costs[j] = snic.Cost{Reads: res.Reads, Writes: res.Writes, ExtraCycles: tr.extra[j]}
		// Same order as the datapath stage: hook-raised events fired
		// inside OnPacket, then the Pin/Unpin reaction, then the
		// reaction-raised whitelist.
		for evs.packetDue(j+1, true) {
			cache.Unpin(evs.pop().key)
		}
		if tr.ops[j]&opPin != 0 {
			cache.Pin(keys[j])
		}
		if tr.ops[j]&opUnpin != 0 {
			cache.Unpin(keys[j])
		}
		for evs.packetDue(j+1, false) {
			cache.Unpin(evs.pop().key)
		}
		ct.step()
	}
	ct.end()
	cache.FlushAcc(&acc)
	rp.cacheNs = ct.total

	got, want := cache.Stats(), tp.rep.Cache
	if got.PHits != want.PHits || got.EHits != want.EHits || got.Misses != want.Misses ||
		got.Evictions != want.Evictions || got.HostPunts != want.HostPunts {
		rp.fail("flowcache replay phit/ehit/miss/evict/punt %d/%d/%d/%d/%d, full run %d/%d/%d/%d/%d",
			got.PHits, got.EHits, got.Misses, got.Evictions, got.HostPunts,
			want.PHits, want.EHits, want.Misses, want.Evictions, want.HostPunts)
	}
	if got, want := cache.Switchovers(), tp.rep.Switchovers; got != want {
		rp.fail("flowcache replay flipped modes %d times, full run %d", got, want)
	}
	return costs
}

// replayEngine runs the sNIC discrete-event simulator alone over the
// packets offered to it, charging the recorded costs.
func (rp *replayed) replayEngine(tp *pass, costs []snic.Cost) {
	tr, cfg := tp.tr, tp.cfg
	snicCfg := snicConfig(cfg)
	// With the switch on only the steered packets reach the engine, and
	// the workload is paced, so the tap saw every one of them; with it off
	// the engine is offered the whole input, drops included.
	offered := func(yield func(*packet.Packet) bool) {
		if cfg.EnableSwitch {
			for j := range tr.idx {
				if !yield(tr.pkt(j)) {
					return
				}
			}
			return
		}
		for i := range tr.offered {
			if !yield(&tr.offered[i]) {
				return
			}
		}
	}
	j := 0
	eng := snic.New(snicCfg, func(*packet.Packet, snic.Ctx) snic.Cost {
		c := costs[j]
		j++
		return c
	})
	ct := &chunkTimer{tr: tr, name: "snic.dispatch"}
	ct.begin()
	rep := eng.Run(func(yield func(packet.Packet) bool) {
		for p := range offered {
			if !yield(*p) {
				return
			}
			ct.step()
		}
	})
	ct.end()
	rp.dispatchNs = ct.total
	want := &tp.rep.SNIC
	if rep.Processed != want.Processed || rep.Dropped != want.Dropped {
		rp.fail("engine replay processed/dropped %d/%d, full run %d/%d", rep.Processed, rep.Dropped, want.Processed, want.Dropped)
	} else if got, w := rep.Latency.Percentile(99), want.Latency.Percentile(99); got != w {
		rp.fail("engine replay p99 latency %.3f, full run %.3f", got, w)
	}

	// Drop path: the packets the input buffer refused, offered at one
	// instant to a fresh engine so that, past the first ~860 that fill
	// the 20 us buffer, every one takes the drop branch and nothing else.
	if rep.Dropped < 4*warmDrops || cfg.EnableSwitch {
		return
	}
	dropped := make([]packet.Packet, 0, rep.Dropped)
	for i, t := 0, 0; i < len(tr.offered); i++ {
		if t < len(tr.idx) && int(tr.idx[t]) == i {
			t++
			continue
		}
		p := tr.offered[i]
		p.Ts = 0
		dropped = append(dropped, p)
	}
	sat := snic.New(snicCfg, func(*packet.Packet, snic.Ctx) snic.Cost { return snic.Cost{} })
	var t0, t1 int64
	satRep := sat.Run(func(yield func(packet.Packet) bool) {
		for i := range dropped {
			if i == warmDrops {
				t0 = tr.now()
			}
			if !yield(dropped[i]) {
				return
			}
		}
		t1 = tr.now()
	})
	tr.add(span{Name: "snic.drop_path", Start: t0, End: t1, Parent: -1, Vec: -1, Calls: len(dropped) - warmDrops})
	if satRep.Dropped+warmDrops < uint64(len(dropped)) {
		rp.fail("drop-path replay dropped only %d of %d", satRep.Dropped, len(dropped))
		return
	}
	rp.dropPathNs = float64(t1-t0) / float64(len(dropped)-warmDrops)
}

// warmDrops packets fill the input buffer before the drop path is timed.
const warmDrops = 2000

// replayDeliver hands the packets the datapath sent to the host (punts
// and detector ToHost verdicts) to a fresh set of NF ports.
func (rp *replayed) replayDeliver(tp *pass) {
	tr := tp.tr
	ports := host.NewPorts(host.NewFlowStore(tp.cfg.HostCost))
	ct := &chunkTimer{tr: tr, name: "host.nf_deliver"}
	ct.begin()
	for j, op := range tr.ops {
		if op&(opPunted|opToHost) == 0 {
			continue
		}
		if op&opPunted != 0 {
			ports.Deliver(tr.pkt(j))
			rp.nfDeliveries++
		}
		if op&opToHost != 0 {
			ports.Deliver(tr.pkt(j))
			rp.nfDeliveries++
		}
		ct.step()
	}
	ct.end()
	rp.nfDeliverNs = ct.total
	if want := tp.rep.Counts.ToHost; uint64(rp.nfDeliveries) != want {
		rp.fail("host replay delivered %d packets, full run %d", rp.nfDeliveries, want)
	}
}
