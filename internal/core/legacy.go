package core

// legacy.go preserves the pre-tier monolithic wiring verbatim, behind
// Config.LegacyPipeline. It is the determinism oracle: at Shards=1 the
// tier pipeline must reproduce this path byte-for-byte (see
// determinism_test.go), which is what licenses replacing direct
// cross-layer calls with bus events. Remove once the pipeline has soaked.

import (
	"smartwatch/internal/flowcache"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// legacyWhitelist is the direct-call whitelist: program the switch, then
// release the pin.
func (pl *Platform) legacyWhitelist(k packet.FlowKey) {
	if pl.sw != nil {
		_ = pl.sw.Whitelist(k) // a full table only costs the fast path
	}
	pl.cache.Unpin(k)
}

// legacyBlacklist is the direct-call blacklist.
func (pl *Platform) legacyBlacklist(a packet.Addr) {
	if pl.sw != nil {
		pl.sw.Blacklist(a)
	}
}

// legacyEndInterval is the direct-call control-loop heartbeat: close
// switch queries, steer fired subsets, drain the sNIC rings, flush the
// flow log. The interval counter is bumped by the caller (endInterval).
func (pl *Platform) legacyEndInterval(ts int64) {
	if pl.sw != nil && pl.tracker != nil {
		fired := pl.sw.EndInterval(pl.tracker.Candidates())
		for _, fk := range fired {
			if err := pl.sw.Steer(fk); err != nil {
				break // SRAM exhausted; coarser queries needed
			}
		}
	}
	pl.store.DrainRings(pl.cache.Rings())
	pl.ports.Tick(ts)
	pl.flusher.Flush(ts)
}

// legacyHandler is the monolithic sNIC application logic: FlowCache
// update, detector fan out, reaction application — all direct calls.
func (pl *Platform) legacyHandler(p *packet.Packet, ctx snic.Ctx) snic.Cost {
	rec, res := pl.cache.ObserveProcess(p)
	if rec == nil && res.Outcome == flowcache.HostPunt {
		// No sNIC record possible: the host takes the packet whole.
		pl.ports.Deliver(p)
		pl.counts.toHost.Add(1)
	}
	ctx.Pinned = res.Pinned
	r := pl.detectors.OnPacket(p, rec, ctx)
	cost := snic.Cost{Reads: res.Reads, Writes: res.Writes, ExtraCycles: r.ExtraCycles}
	k := p.Key()
	if r.Pin {
		pl.cache.Pin(k)
	}
	if r.Unpin {
		pl.cache.Unpin(k)
	}
	if r.Whitelist {
		pl.legacyWhitelist(k)
	}
	if r.BlacklistSrc {
		pl.legacyBlacklist(p.Tuple.SrcIP)
	}
	if r.ToHost {
		pl.ports.Deliver(p)
		pl.counts.toHost.Add(1)
	}
	if r.DropPacket {
		cost.Drop = true
		pl.counts.blocked.Add(1)
	}
	return cost
}

// legacyStep is the monolithic wire side for one packet: accounting,
// timers and the inline switch tier, then the sNIC engine.
func (pl *Platform) legacyStep(p *packet.Packet) {
	pl.counts.total.Add(1)
	pl.maybeTick(p.Ts)
	if pl.sw != nil {
		pl.tracker.Observe(p)
		switch pl.sw.Process(p) {
		case p4switch.Forward:
			pl.counts.forwardedDirect.Add(1)
			return
		case p4switch.Drop:
			pl.counts.droppedAtSwitch.Add(1)
			return
		}
	}
	pl.counts.toSNIC.Add(1)
	pl.engine.Step(p)
}
