package flowcache

import (
	"fmt"
	"math/bits"

	"smartwatch/internal/packet"
)

// Sharded partitions the FlowCache into n independent shards, mirroring
// the paper's per-island PMEs: each sNIC island owns a slice of the flow
// table and a private mode controller, so islands never contend on rows
// or switchover state. Shard selection uses the TOP bits of the flow
// hash — orthogonal to the row index (low RowBits bits) and the Lite
// slice selector (bits just above RowBits) — so every shard sees the same
// row/bucket geometry it would in the unsharded cache.
//
// Total capacity is invariant: each shard gets RowBits − log2(n) row
// bits, so n shards hold exactly as many records as one unsharded cache
// with the base config. At n=1 a Sharded is bit-for-bit the plain Cache.
//
// Each shard has its own Controller with per-shard thresholds EtaHigh/n
// and EtaLow/n (the per-island share of the aggregate rate), so the
// aggregate switchover point matches the unsharded controller under a
// uniform hash split.
type Sharded struct {
	shards []*Cache
	ctls   []*Controller
	// shift moves the flow hash's top log2(n) bits down to the shard
	// index; 64 when n == 1 (Go defines x>>64 == 0 for uint64).
	shift uint
	base  Config

	// OnModeSwitch, when set, observes every per-shard mode flip, on the
	// goroutine that drove the packet which caused it.
	OnModeSwitch func(shard int, m Mode, rate float64, ts int64)
}

// NewSharded builds an n-shard cache from a base (unsharded) config. n
// must be a power of two ≥ 1 and small enough to leave each shard at
// least one row bit; invalid combinations panic, like New on a bad
// Config.
func NewSharded(n int, cfg Config, ctlCfg ControllerConfig) *Sharded {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("flowcache: shard count %d is not a power of two >= 1", n))
	}
	lg := bits.TrailingZeros(uint(n))
	if cfg.RowBits-lg < 1 {
		panic(fmt.Sprintf("flowcache: %d shards leave %d row bits (need >= 1)", n, cfg.RowBits-lg))
	}
	if err := ctlCfg.Validate(); err != nil {
		// Validate the raw config before normalized() repairs it: the
		// per-shard NewController only ever sees the resolved values.
		panic(err)
	}
	s := &Sharded{
		shards: make([]*Cache, n),
		ctls:   make([]*Controller, n),
		shift:  uint(64 - lg),
		base:   cfg,
	}
	shardCfg := cfg
	shardCfg.RowBits = cfg.RowBits - lg
	shardCtl := ctlCfg.normalized()
	shardCtl.EtaHigh /= float64(n)
	shardCtl.EtaLow /= float64(n)
	for i := 0; i < n; i++ {
		i := i
		c := New(shardCfg)
		perShard := shardCtl
		perShard.OnSwitch = func(m Mode, rate float64, ts int64) {
			if s.OnModeSwitch != nil {
				s.OnModeSwitch(i, m, rate, ts)
			}
		}
		s.shards[i] = c
		s.ctls[i] = NewController(c, perShard)
	}
	return s
}

// Shard returns shard i's cache (for tests and diagnostics).
func (s *Sharded) Shard(i int) *Cache { return s.shards[i] }

func (s *Sharded) shardOf(hash uint64) int { return int(hash >> s.shift) }

// ObserveProcess is the per-packet datapath step the platform runs: the
// owning shard's controller observes the arrival (possibly flipping that
// shard's mode), then the shard processes the packet. Matches the legacy
// Observe-then-Process order exactly; the shard-selection hash is reused
// by the shard so the packet is hashed once, not twice.
func (s *Sharded) ObserveProcess(p *packet.Packet) (*Record, Result) {
	var key packet.FlowKey
	hash := p.Tuple.Identity(&key)
	i := s.shardOf(hash)
	s.ctls[i].Observe(p.Ts, 1)
	return s.shards[i].ProcessHashed(p, hash, key)
}

// ObserveProcessHashed is ObserveProcess for the batched datapath: the
// caller supplies the pre-computed hash/key (hoisted out of the vector
// loop) and a BatchAcc that absorbs the stat deltas instead of per-packet
// atomics. The Observe-then-Process order is unchanged. The caller must
// FlushAcc the acc (see Sharded.FlushAcc) before anyone reads Stats.
func (s *Sharded) ObserveProcessHashed(p *packet.Packet, hash uint64, key packet.FlowKey, acc *BatchAcc) (*Record, Result) {
	i := s.shardOf(hash)
	s.ctls[i].Observe(p.Ts, 1)
	return s.shards[i].ProcessHashedAcc(p, hash, key, acc)
}

// Prefetch requests the owning shard's row for the flow hash ahead of its
// ObserveProcessHashed call (Cache.Prefetch).
func (s *Sharded) Prefetch(hash uint64) { s.shards[s.shardOf(hash)].Prefetch(hash) }

// FlushAcc folds a batch accumulator into shard 0's counters. Aggregate
// Stats() sums across shards, so which shard absorbs the flush is
// unobservable.
func (s *Sharded) FlushAcc(acc *BatchAcc) { s.shards[0].FlushAcc(acc) }

// Lookup copies the record for key, if cached, and reports its pin.
func (s *Sharded) Lookup(key packet.FlowKey) (rec Record, pinned, ok bool) {
	return s.shards[s.shardOf(key.Hash())].Lookup(key)
}

// Pin marks the flow's record unevictable.
func (s *Sharded) Pin(key packet.FlowKey) bool {
	return s.shards[s.shardOf(key.Hash())].Pin(key)
}

// Unpin clears the pin.
func (s *Sharded) Unpin(key packet.FlowKey) bool {
	return s.shards[s.shardOf(key.Hash())].Unpin(key)
}

// SetMode forces every shard into mode m.
func (s *Sharded) SetMode(m Mode) {
	for _, c := range s.shards {
		c.SetMode(m)
	}
}

// Rings returns every shard's eviction rings, shard-major — the host
// drains them all, so ordering only affects drain sequence, which is
// deterministic.
func (s *Sharded) Rings() []*Ring {
	if len(s.shards) == 1 {
		return s.shards[0].Rings()
	}
	var out []*Ring
	for _, c := range s.shards {
		out = append(out, c.Rings()...)
	}
	return out
}

// Snapshot visits every cached record under row latches, shard 0 first.
// fn returning false stops the walk across all shards.
func (s *Sharded) Snapshot(fn func(Record) bool) {
	stopped := false
	for _, c := range s.shards {
		c.Snapshot(func(r Record) bool {
			if !fn(r) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Occupancy sums live records across shards.
func (s *Sharded) Occupancy() int {
	n := 0
	for _, c := range s.shards {
		n += c.Occupancy()
	}
	return n
}

// Stats returns the field-wise sum of every shard's counters.
func (s *Sharded) Stats() Stats {
	var t Stats
	for _, c := range s.shards {
		t = t.Add(c.Stats())
	}
	return t
}

// Switchovers sums mode flips across all shard controllers.
func (s *Sharded) Switchovers() uint64 {
	var n uint64
	for _, ctl := range s.ctls {
		n += ctl.Switchovers()
	}
	return n
}
