// Vectored drive (DESIGN.md §9): ingest is consumed in chunks of
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
//   - Steering stays per-packet, interleaved with sNIC processing:
//     detector reactions publish blacklist/whitelist events that rewrite
//     the switch tables mid-stream, so pre-steering a chunk would let a
//     later packet see a stale table.
//   - The sNIC side stays per-packet too: the DES charges packet i+1's
//     queueing against packet i's cost, and detectors read live records.
//     Each steered packet is stepped through the engine to completion
//     before the next one is steered.
//
// What does batch: ingest accounting (one counter fold per sub-batch),
// flow-identity pre-computation (one canonicalisation + hash per packet,
// reused by the steer stage and the FlowCache), the FlowCache row
// prefetch, and FlowCache stat accounting (plain accumulator, one atomic
// flush per sub-batch).
package core

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// ingestVector runs one ingested vector to completion on the caller's
// goroutine. The drive re-chunks it to exact BatchSize boundaries
// (every chunk holds exactly BatchSize packets except the drive's last, so
// results do not depend on how the caller cut its vectors): aligned input
// — the common case, since the one-shot Run wrapper ingests in multiples
// of BatchSize — is consumed in place, stragglers wait in the carry for
// the next vector or endDrive. b is not retained.
func (pl *Platform) ingestVector(b []packet.Packet) {
	size := pl.cfg.BatchSize
	if len(pl.carry) > 0 {
		n := min(size-len(pl.carry), len(b))
		pl.carry = append(pl.carry, b[:n]...)
		b = b[n:]
		if len(pl.carry) < size {
			return
		}
		pl.consume(pl.carry)
		pl.carry = pl.carry[:0]
	}
	for len(b) >= size {
		pl.consume(b[:size])
		b = b[size:]
	}
	pl.carry = append(pl.carry, b...)
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
// ingest accounting, per-packet steer and one engine.Step per steered
// packet. The engine calls tierHandler synchronously inside Step, so each
// packet is fully processed — FlowCache, detectors, reactions, host
// delivery — before the next one is steered.
func (pl *Platform) consume(batch []packet.Packet) {
	ctxs := pl.ctxs[:len(batch)]
	prepIdentity(batch, ctxs)
	// The chunk's table rows, requested a vector ahead of their probes so
	// up to BatchSize misses are in flight at once instead of one per Step.
	for i := range ctxs {
		pl.cache.Prefetch(ctxs[i].Hash)
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
				// Steer per-packet: the sNIC processing of the previous
				// packet (inside the last Step) may have programmed the
				// switch tables this decision reads.
				pl.steer.HandleKeyed(c)
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
