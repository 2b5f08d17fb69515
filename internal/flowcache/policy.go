package flowcache

import "math/bits"

// The replacement policies (DESIGN.md §11): the paper's LRU-LPC hybrid is
// the default, and the alternatives are selectable by name through
// Config.Policy. Every policy is built in.
//
// Hot-path neutrality (DESIGN.md §11.2): the per-packet path never makes
// an interface call. Cache resolves the configured policy once, at New,
// into a small policyKind enum, and the victim/hit/demote hooks switch on
// that enum — the compiler sees a branch on a byte that is hot in cache,
// not a virtual dispatch. The probe/update hit path is shared by every
// policy and unchanged from the seed; a new policy is one more arm here.

// policyKind selects the victim / hit / demote behaviour the hot path
// switches on.
type policyKind uint8

const (
	// kindBuffers runs the seed comparator pair from Config.PolicyP /
	// Config.PolicyE — "lru-lpc" and "lru" both resolve here, as does an
	// empty Config.Policy (full backward compatibility).
	kindBuffers policyKind = iota
	// kindS3FIFO runs the correlation-aware S3-FIFO variant.
	kindS3FIFO
)

// s3fifoMaxFreq caps the per-record access counter, as in S3-FIFO's
// 2-bit frequency field: enough to separate reused flows from one-hit
// wonders without letting old elephants pin buckets forever.
const s3fifoMaxFreq = 3

// Built-in policy names.
const (
	// PolicyNameLRULPC is the paper's hybrid: LRU victims in P, LPC in E
	// (the Fig. 5 winner and the seed default).
	PolicyNameLRULPC = "lru-lpc"
	// PolicyNameLRU is plain LRU in both buffers.
	PolicyNameLRU = "lru"
	// PolicyNameS3FIFO is the correlation-aware S3-FIFO variant: FIFO
	// victims in P with quick demotion (flows that never re-hit skip E
	// and go straight to the ring), frequency-first victims in E with
	// CLOCK-style aging, and lazy promotion (E hits stay in E).
	PolicyNameS3FIFO = "s3fifo"
)

// KnownPolicies lists every selectable policy name, sorted — the
// vocabulary Validate accepts for Config.Policy (plus "").
func KnownPolicies() []string {
	return []string{PolicyNameLRU, PolicyNameLRULPC, PolicyNameS3FIFO}
}

// validPolicyName reports whether name selects a known policy ("" means
// "derive from PolicyP/PolicyE", always valid).
func validPolicyName(name string) bool {
	switch name {
	case "", PolicyNameLRULPC, PolicyNameLRU, PolicyNameS3FIFO:
		return true
	}
	return false
}

// resolvePolicy maps a validated Config to the devirtualisation kind and
// the effective per-buffer comparators (meaningful for kindBuffers).
func resolvePolicy(cfg Config) (policyKind, Policy, Policy) {
	switch cfg.Policy {
	case PolicyNameLRULPC:
		return kindBuffers, LRU, LPC
	case PolicyNameLRU:
		return kindBuffers, LRU, LRU
	case PolicyNameS3FIFO:
		return kindS3FIFO, FIFO, FIFO
	}
	// Seed behaviour: honour the comparator pair as configured.
	return kindBuffers, cfg.PolicyP, cfg.PolicyE
}

// PolicyName reports the effective replacement policy name: the
// configured Config.Policy, or — when unset — the canonical name of the
// comparator pair ("lru-lpc" for the seed default LRU/LPC, otherwise a
// "p/q" description like "fifo/fifo").
func (c *Cache) PolicyName() string {
	if c.cfg.Policy != "" {
		return c.cfg.Policy
	}
	if c.policyP == LRU && c.policyE == LPC {
		return PolicyNameLRULPC
	}
	return c.policyP.String() + "/" + c.policyE.String()
}

// victimP selects the replacement victim for the Primary buffer (or the
// whole candidate slice in Lite mode) — the devirtualised policy
// dispatch point of the insert path.
func (c *Cache) victimP(rw *row, lo, hi int, res *Result) int {
	if c.kind == kindS3FIFO {
		// P is S3-FIFO's small queue: strict insertion order.
		return c.victimIndex(rw, lo, hi, FIFO, res)
	}
	return c.victimIndex(rw, lo, hi, c.policyP, res)
}

// victimE selects the replacement victim for the Eviction buffer.
func (c *Cache) victimE(rw *row, lo, hi int, res *Result) int {
	if c.kind == kindS3FIFO {
		return c.victimS3E(rw, lo, hi, res)
	}
	return c.victimIndex(rw, lo, hi, c.policyE, res)
}

// onHit is S3-FIFO's hit hook: freq++ across the two planes, saturating at
// s3fifoMaxFreq (both bits set) — f0 toggles, f1 takes its carry. The
// caller has already checked c.kind == kindS3FIFO, so the seed path never
// reaches here — the hit path stays byte-identical to the pre-policy cache.
func (c *Cache) onHit(rw *row, idx int) {
	if h, bit := rw.hdr, uint64(1)<<uint(idx); h.f0&h.f1&bit == 0 {
		h.f1 ^= h.f0 & bit
		h.f0 ^= bit
	}
}

// promoteOnEHit reports whether an E hit swaps into P under the active
// policy. S3-FIFO promotes lazily: reuse is recorded in freq, and the
// record earns its place in E instead of displacing a P entry per hit.
func (c *Cache) promoteOnEHit() bool { return c.kind == kindBuffers }

// demoteToE reports whether P's eviction victim cascades into E under
// the active policy. S3-FIFO demotes quickly: a flow that never re-hit
// while in P is a one-hit wonder (scan/flood junk in traffic terms), and
// evicting it straight to the ring keeps E for flows with demonstrated
// reuse.
func (c *Cache) demoteToE(rw *row, idx int) bool {
	return c.kind == kindBuffers || (rw.hdr.f0|rw.hdr.f1)>>uint(idx)&1 != 0
}

// victimS3E is the S3-FIFO main-queue victim scan: prefer the lowest
// access frequency, break ties FIFO (oldest FirstTs), and age the
// surviving candidates CLOCK-style so frequencies decay as eviction
// pressure passes over them. Free slots win immediately and pinned
// records are skipped, like every other policy. Aging mutates only the
// scanned E buckets, under the row latch, at victim-selection time —
// the same virtual-time points in every batch/shard configuration, so
// determinism is preserved.
func (c *Cache) victimS3E(rw *row, lo, hi int, res *Result) int {
	if i := rw.freeSlot(lo, hi, res); i >= 0 {
		return i
	}
	res.Reads += hi - lo
	h := rw.hdr
	cand := span(lo, hi) &^ h.pins.Load()
	if cand == 0 {
		return -1
	}
	victim, vf := -1, uint64(0)
	for m := cand; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		f := h.f1>>uint(i)&1<<1 | h.f0>>uint(i)&1
		if victim == -1 || f < vf || (f == vf && rw.buckets[i].FirstTs < rw.buckets[victim].FirstTs) {
			victim, vf = i, f
		}
	}
	// freq-- on every surviving candidate that has any: f0 toggles, f1
	// gives the borrow where f0 was clear.
	aged := cand &^ (1 << uint(victim)) & (h.f0 | h.f1)
	h.f1 ^= aged &^ h.f0
	h.f0 ^= aged
	return victim
}
