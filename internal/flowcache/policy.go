package flowcache

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// This file is the replacement-policy lab (ROADMAP item 4): the victim
// selection that used to be hard-wired into the insert/promote paths is
// now a pluggable policy, with the paper's LRU-LPC hybrid extracted as
// the default (byte-identical to the pre-refactor behaviour — the
// policy goldens prove it) and alternatives selectable by name through
// Config.Policy.
//
// Hot-path neutrality (DESIGN.md §11.2): the per-packet path never makes
// an interface call for the built-in policies. Cache resolves the
// configured policy once, at New, into a small policyKind enum, and the
// victim/hit/demote hooks switch on that enum — the compiler sees a
// three-way branch on a byte that is hot in cache, not a virtual
// dispatch. Only externally registered policies (RegisterPolicy) pay the
// interface call, and only on the miss/evict path; the probe/update hit
// path is shared by every policy and unchanged from the seed.

// Buffer identifies which buffer a victim is being selected for.
type Buffer uint8

// Buffers of the paper's split row layout.
const (
	// BufferP is the Primary buffer (first PrimaryBuckets of the row in
	// General mode; the whole candidate slice in Lite mode).
	BufferP Buffer = iota
	// BufferE is the Eviction buffer.
	BufferE
)

// String names the buffer.
func (b Buffer) String() string {
	if b == BufferE {
		return "E"
	}
	return "P"
}

// ReplacementPolicy is the pluggable victim-selection contract. Every
// method runs under the owning row's latch, so implementations may read
// and mutate records freely but must not block or touch other rows.
//
// The built-in policies bypass this interface entirely (see policyKind);
// it exists so experiments can register novel policies without touching
// the cache internals. Implementations must be deterministic: victim
// choice may depend only on the bucket contents, never on wall-clock
// time or external state, or the batch/shard determinism goldens break.
type ReplacementPolicy interface {
	// Name reports the registry name (what Config.Policy selects).
	Name() string
	// Victim selects the replacement victim among buckets[lo:hi) for the
	// given buffer, reporting the number of buckets it inspected (billed
	// as reads by the cost model). The cache takes a free slot itself, so
	// Victim runs only when every bucket in the range holds a record; it
	// must skip pinned records — bit i of pinned set means buckets[i] is —
	// and return victim -1 when every candidate is pinned. It returns
	// values rather than mutating
	// the caller's *Result so the hot path's Result never flows into an
	// interface call — escape analysis would otherwise heap-allocate it
	// on EVERY packet, custom policy configured or not.
	Victim(buckets []Record, pinned uint64, lo, hi int, buf Buffer) (victim, reads int)
	// OnHit observes a hit on rec (P or E buffer) under the row latch —
	// the place to maintain recency/frequency state beyond the LastTs
	// and Pkts fields the cache already updates.
	OnHit(rec *Record, buf Buffer)
	// PromoteOnEHit reports whether an E-buffer hit swaps the record
	// into P (the paper's Fig. 4a behaviour) or leaves it in place
	// (lazy promotion).
	PromoteOnEHit() bool
	// DemoteToE reports whether P's eviction victim is demoted into the
	// E buffer (true, the paper's cascade) or evicted straight to the
	// ring (false — quick demotion for flows that never re-hit).
	DemoteToE(victim *Record) bool
}

// policyKind devirtualises the built-in policies: the hot path switches
// on this enum instead of calling through ReplacementPolicy.
type policyKind uint8

const (
	// kindBuffers runs the seed comparator pair from Config.PolicyP /
	// Config.PolicyE — "lru-lpc" and "lru" both resolve here, as does an
	// empty Config.Policy (full backward compatibility).
	kindBuffers policyKind = iota
	// kindS3FIFO runs the correlation-aware S3-FIFO variant.
	kindS3FIFO
	// kindCustom dispatches through the ReplacementPolicy interface.
	kindCustom
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

// policyFactory builds a custom policy instance for one cache.
type policyFactory func(cfg Config) ReplacementPolicy

var (
	policyMu       sync.RWMutex
	customPolicies = map[string]policyFactory{}
)

// RegisterPolicy makes a custom replacement policy selectable through
// Config.Policy. The factory runs once per Cache (each cache gets a
// private instance, so per-policy state needs no locking beyond the row
// latch). Registering a built-in name or registering twice panics —
// policy names are global configuration surface, and silent replacement
// would make Config.Policy mean different things in different tests.
func RegisterPolicy(name string, factory policyFactory) {
	if factory == nil {
		panic("flowcache: RegisterPolicy with nil factory")
	}
	if isBuiltinPolicy(name) {
		panic(fmt.Sprintf("flowcache: policy %q is built in", name))
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := customPolicies[name]; dup {
		panic(fmt.Sprintf("flowcache: policy %q already registered", name))
	}
	customPolicies[name] = factory
}

func isBuiltinPolicy(name string) bool {
	switch name {
	case PolicyNameLRULPC, PolicyNameLRU, PolicyNameS3FIFO:
		return true
	}
	return false
}

// KnownPolicies lists every selectable policy name, built-ins first,
// then registered customs, each group sorted — the vocabulary Validate
// accepts for Config.Policy (plus "").
func KnownPolicies() []string {
	out := []string{PolicyNameLRU, PolicyNameLRULPC, PolicyNameS3FIFO}
	policyMu.RLock()
	defer policyMu.RUnlock()
	custom := make([]string, 0, len(customPolicies))
	for name := range customPolicies {
		custom = append(custom, name)
	}
	sort.Strings(custom)
	return append(out, custom...)
}

// validPolicyName reports whether name selects a known policy ("" means
// "derive from PolicyP/PolicyE", always valid).
func validPolicyName(name string) bool {
	if name == "" || isBuiltinPolicy(name) {
		return true
	}
	policyMu.RLock()
	defer policyMu.RUnlock()
	_, ok := customPolicies[name]
	return ok
}

// resolvePolicy maps a validated Config to the devirtualisation kind,
// the effective per-buffer comparators (meaningful for kindBuffers),
// and the interface instance (non-nil only for kindCustom).
func resolvePolicy(cfg Config) (policyKind, Policy, Policy, ReplacementPolicy) {
	switch cfg.Policy {
	case "":
		// Seed behaviour: honour the comparator pair as configured.
		return kindBuffers, cfg.PolicyP, cfg.PolicyE, nil
	case PolicyNameLRULPC:
		return kindBuffers, LRU, LPC, nil
	case PolicyNameLRU:
		return kindBuffers, LRU, LRU, nil
	case PolicyNameS3FIFO:
		return kindS3FIFO, FIFO, FIFO, nil
	}
	policyMu.RLock()
	factory := customPolicies[cfg.Policy]
	policyMu.RUnlock()
	if factory == nil {
		// Validate already rejected unknown names; reaching here means a
		// policy was unregistered between Validate and New.
		panic(fmt.Sprintf("flowcache: policy %q not registered", cfg.Policy))
	}
	return kindCustom, cfg.PolicyP, cfg.PolicyE, factory(cfg)
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
	switch c.kind {
	case kindBuffers:
		return c.victimIndex(rw, lo, hi, c.policyP, res)
	case kindS3FIFO:
		// P is S3-FIFO's small queue: strict insertion order.
		return c.victimIndex(rw, lo, hi, FIFO, res)
	default:
		return c.victimCustom(rw, lo, hi, BufferP, res)
	}
}

// victimE selects the replacement victim for the Eviction buffer.
func (c *Cache) victimE(rw *row, lo, hi int, res *Result) int {
	switch c.kind {
	case kindBuffers:
		return c.victimIndex(rw, lo, hi, c.policyE, res)
	case kindS3FIFO:
		return c.victimS3E(rw, lo, hi, res)
	default:
		return c.victimCustom(rw, lo, hi, BufferE, res)
	}
}

// victimCustom serves a free slot like every built-in policy does and
// otherwise asks the registered policy.
func (c *Cache) victimCustom(rw *row, lo, hi int, buf Buffer, res *Result) int {
	if i := rw.freeSlot(lo, hi, res); i >= 0 {
		return i
	}
	victim, reads := c.policy.Victim(rw.buckets, rw.hdr.pins.Load(), lo, hi, buf)
	res.Reads += reads
	return victim
}

// onHit runs the policy's hit hook. The caller has already checked
// c.kind != kindBuffers, so the seed path never reaches here — the hit
// path stays byte-identical to the pre-policy cache.
func (c *Cache) onHit(rw *row, idx int, buf Buffer) {
	if c.kind == kindS3FIFO {
		// freq++ across the two planes, saturating at s3fifoMaxFreq (both
		// bits set): f0 toggles, f1 takes its carry.
		if h, bit := rw.hdr, uint64(1)<<uint(idx); h.f0&h.f1&bit == 0 {
			h.f1 ^= h.f0 & bit
			h.f0 ^= bit
		}
		return
	}
	c.policy.OnHit(&rw.buckets[idx], buf)
}

// promoteOnEHit reports whether an E hit swaps into P under the active
// policy.
func (c *Cache) promoteOnEHit() bool {
	switch c.kind {
	case kindBuffers:
		return true
	case kindS3FIFO:
		// Lazy promotion: reuse is recorded in freq; the record earns its
		// place in E instead of displacing a P entry per hit.
		return false
	default:
		return c.policy.PromoteOnEHit()
	}
}

// demoteToE reports whether P's eviction victim cascades into E under
// the active policy.
func (c *Cache) demoteToE(rw *row, idx int) bool {
	switch c.kind {
	case kindBuffers:
		return true
	case kindS3FIFO:
		// Quick demotion: a flow that never re-hit while in P is a one-hit
		// wonder (scan/flood junk in traffic terms); evicting it straight
		// to the ring keeps E for flows with demonstrated reuse.
		return (rw.hdr.f0|rw.hdr.f1)>>uint(idx)&1 != 0
	default:
		return c.policy.DemoteToE(&rw.buckets[idx])
	}
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
