// Vectored drive (DESIGN.md §7.1): ingest is consumed in chunks of
// Config.BatchSize packets (a chunk of one when BatchSize ≤ 1),
// amortising per-packet dispatch without changing a single observable
// byte. The invariant the whole file is built around: batching may only
// move work that commutes — counter folds, stat-delta accumulation, hash
// pre-computation — and must keep every stateful sequence in per-packet
// order. Concretely:
//
//   - Timer work (detector ticks, interval closes) fires between packets
//     exactly where a chunk of one fires it: each chunk is split into
//     sub-batches at the next timer boundary, with the boundary recomputed
//     after the tick that opens each sub-batch.
//   - The switch's classification is pure and valid for one sub-batch:
//     queries and steer entries change only in CloseInterval, at a
//     sub-batch head. Application stays per-packet, interleaved with sNIC
//     processing: detector reactions rewrite the whitelist and blacklist
//     mid-stream.
//   - The sNIC side stays per-packet too: the DES charges packet i+1's
//     queueing against packet i's cost, and detectors read live records.
//     Each steered packet is stepped through the engine to completion
//     before the next one is steered.
//
// What does batch: ingest accounting (one counter fold per sub-batch),
// flow-identity pre-computation (one canonicalisation + hash per packet,
// reused by the steer stage and the FlowCache), switch classification,
// the FlowCache row prefetch — with a switch, only for the packets the
// classification steers — and FlowCache stat accounting (plain
// accumulator, one atomic flush per sub-batch).
package core

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// ingestVector runs one ingested vector to completion on the caller's
// goroutine, in place, in chunks of BatchSize packets (the last may be
// short). Batching is result-neutral, so how the caller cut its vectors
// does not matter, and every ingested packet has been processed when
// ingestVector returns. b is not retained.
func (pl *Platform) ingestVector(b []packet.Packet) {
	for len(b) > 0 {
		n := min(pl.cfg.BatchSize, len(b))
		pl.consume(b[:n])
		b = b[n:]
	}
}

// prepIdentity fills ctxs[0:len(batch)] with each packet's flow identity
// — context reset, canonical key, flow hash. It touches only the context
// vector and reads only the packets.
func prepIdentity(batch []packet.Packet, ctxs []tier.Context) {
	for j := range batch {
		c := &ctxs[j]
		c.Reset(&batch[j])
		c.Hash = batch[j].Tuple.Identity(&c.Key)
	}
}

// consume runs one chunk (at most BatchSize packets) through the platform:
// identity prep for the whole chunk, then timer-split sub-batches of
// ingest accounting, classification, per-packet steer and one engine.Step
// per steered packet. The engine calls tierHandler synchronously inside
// Step, so each packet is fully processed — FlowCache, detectors,
// reactions, host delivery — before the next one is steered.
func (pl *Platform) consume(batch []packet.Packet) {
	ctxs := pl.ctxs[:len(batch)]
	prepIdentity(batch, ctxs)
	// The table rows, requested ahead of their probes so that many misses
	// are in flight at once: without a switch, the whole chunk's.
	if pl.steer == nil {
		for i := range ctxs {
			pl.cache.Prefetch(ctxs[i].Hash)
		}
	}
	for lo := 0; lo < len(batch); {
		// Fire timers due at the sub-batch head FIRST, then bound the
		// sub-batch below the next timer so nothing can fire inside it —
		// interval flushes and detector ticks observe exactly the state a
		// chunk of one would show them.
		// (Not a head behind the clock: the loop below counts those, once
		// each.)
		if ts := batch[lo].Ts; ts >= pl.clock {
			pl.maybeTick(ts)
		}
		bound := min(pl.nextTick, pl.nextInterval)
		hi := lo + 1
		for hi < len(batch) && batch[hi].Ts < bound {
			hi++
		}
		sub := batch[lo:hi]
		if pl.steer != nil {
			// Classes hold to the sub-batch's end; only packets they steer
			// can reach the FlowCache.
			for j := range sub {
				c := pl.steer.Classify(&sub[j])
				pl.classes[lo+j] = c
				if c.Steered() {
					pl.cache.Prefetch(ctxs[lo+j].Hash)
				}
			}
		}

		// The packet counters fold once per sub-batch: their only tick-path
		// reader is the interval metrics snapshot, and no timer can fire
		// before the sub-batch ends, so it sees them as a chunk of one
		// leaves them (tick, then count).
		var direct, dropped uint64
		for j := range sub {
			// Ingest: inside a sub-batch the tick only advances the clock
			// or counts a timestamp behind it.
			pl.maybeTick(sub[j].Ts)
			c := &ctxs[lo+j]
			if pl.steer != nil {
				// Apply per-packet: the sNIC processing of the previous
				// packet (inside the last Step) may have whitelisted or
				// blacklisted this one.
				pl.steer.Apply(c, pl.classes[lo+j])
				if c.Verdict == tier.ForwardDirect {
					direct++
					continue
				}
				if c.Verdict == tier.DropAtSwitch {
					dropped++
					continue
				}
			}
			pl.cur = c
			pl.engine.Step(&sub[j])
		}
		// Fold before the next maybeTick: interval observers must see
		// aggregate stats exactly as a chunk of one leaves them.
		pl.counts.total.Add(uint64(len(sub)))
		if direct|dropped != 0 {
			pl.counts.forwardedDirect.Add(direct)
			pl.counts.droppedAtSwitch.Add(dropped)
		}
		pl.counts.toSNIC.Add(uint64(len(sub)) - direct - dropped)
		pl.cache.FlushAcc(&pl.batchAcc)
		lo = hi
	}
}
