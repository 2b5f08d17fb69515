package flowcache

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// stateSig folds every resident record (in deterministic Snapshot order)
// and the cumulative stats into one FNV-1a hash — a byte-level signature
// of the cache's observable end state. Two caches that processed the
// same stream identically produce the same signature.
func stateSig(c *Cache) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	c.walk(func(r Record, _ bool, freq uint8) {
		w(r.Key.Hash())
		w(r.Pkts)
		w(r.Bytes)
		w(uint64(r.FirstTs))
		w(uint64(r.LastTs))
		w(uint64(freq))
	})
	st := c.Stats()
	for _, v := range []uint64{st.PHits, st.EHits, st.Misses, st.Inserts,
		st.Evictions, st.RingDrops, st.HostPunts, st.PinDenied,
		st.RowCleanups, st.CleanupEvictions, st.Reads, st.Writes} {
		w(v)
	}
	return h.Sum64()
}

// policyStream is the fixed workload behind the policy goldens: a Zipf
// flow mix over more flows than the table holds, so every replacement
// path (P victim, E victim, demotion, promotion) runs.
func policyStream(n int) []packet.Packet {
	rng := stats.NewRand(42)
	z := stats.NewZipf(rng, 6000, 1.1)
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = pkt(int(z.Sample()), int64(i)*1000)
	}
	return pkts
}

// mustParsePolicy is ParsePolicy for a name the test knows is built in.
func mustParsePolicy(t testing.TB, name string) (p, e Policy) {
	t.Helper()
	p, e, err := ParsePolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return p, e
}

func runPolicy(p, e Policy) *Cache {
	cfg := smallConfig()
	cfg.PolicyP, cfg.PolicyE = p, e
	c := New(cfg)
	for _, p := range policyStream(50_000) {
		q := p
		c.Process(&q)
	}
	return c
}

// policyGoldenSig pins the end-state signature of the seed replacement
// path (the LRU/LPC comparators) on the fixed policyStream, computed from
// the pre-refactor cache (commit 05d57be's Process path) on the identical
// stream. The default pair, "lru-lpc", must reproduce it byte-for-byte;
// any refactor that shifts a single eviction decision changes this
// constant and must be treated as a behaviour change, not re-pinned
// casually.
const policyGoldenSig uint64 = 0xfe302f722078bc72

func TestPolicyLRULPCGolden(t *testing.T) {
	cfg := smallConfig()
	if got := stateSig(runPolicy(cfg.PolicyP, cfg.PolicyE)); got != policyGoldenSig {
		t.Errorf("default pair signature = %#x, want %#x", got, policyGoldenSig)
	}
	if got := PolicyName(cfg.PolicyP, cfg.PolicyE); got != PolicyNameLRULPC {
		t.Errorf("default pair is named %q, want %q", got, PolicyNameLRULPC)
	}
}

func TestPolicyVariantsDiverge(t *testing.T) {
	// Sanity on the dispatch: the alternative policies must actually make
	// different replacement decisions on the same stream.
	base := stateSig(runPolicy(LRU, LPC))
	for _, pair := range [][2]Policy{{LRU, LRU}, {FIFO, S3FIFO}} {
		if got := stateSig(runPolicy(pair[0], pair[1])); got == base {
			t.Errorf("policy %q end state identical to lru-lpc — dispatch not taking effect", PolicyName(pair[0], pair[1]))
		}
	}
}

func TestPolicyDeterminism(t *testing.T) {
	for _, pair := range [][2]Policy{{LRU, LPC}, {LRU, LRU}, {FIFO, S3FIFO}} {
		if stateSig(runPolicy(pair[0], pair[1])) != stateSig(runPolicy(pair[0], pair[1])) {
			t.Errorf("policy %q not deterministic across runs", PolicyName(pair[0], pair[1]))
		}
	}
}

// s3Config is a tiny s3fifo cache for single-record behaviour tests.
func s3Config() Config {
	cfg := DefaultConfig(1) // 2 rows x 12 buckets
	cfg.RingEntries = 4096
	cfg.PolicyP, cfg.PolicyE = FIFO, S3FIFO
	return cfg
}

func TestS3FIFOFreqSaturates(t *testing.T) {
	c := New(s3Config())
	p := pkt(1, 1)
	for i := 0; i < 10; i++ {
		q := p
		q.Ts = int64(i + 1)
		c.Process(&q)
	}
	if _, _, ok := c.Lookup(p.Key()); !ok {
		t.Fatal("flow not cached")
	}
	c.walk(func(_ Record, _ bool, freq uint8) {
		if freq != s3fifoMaxFreq {
			t.Errorf("freq = %d after 10 hits, want saturation at %d", freq, s3fifoMaxFreq)
		}
	})
}

func TestS3FIFOLazyPromotion(t *testing.T) {
	// Under s3fifo an E-buffer hit must NOT promote the record into P:
	// repeated hits keep reporting EHit. Under lru-lpc the first EHit
	// swaps the record into P and the next hit is a PHit.
	//
	// Setup (identical victim under both policies): insert 4 flows
	// filling P, re-hit each once in insertion order (giving them
	// freq 1 / fresh LastTs), then insert a 5th — the P victim is the
	// first-inserted flow under both FIFO (oldest FirstTs) and LRU
	// (oldest re-hit), and freq 1 demotes it into E either way.
	run := func(p, e Policy) (first, second Outcome) {
		cfg := smallConfig()
		cfg.PolicyP, cfg.PolicyE = p, e
		c := New(cfg)
		flows := collideRow(t, c, 5)
		ts := int64(0)
		for i := 0; i < 4; i++ {
			ts++
			q := flows[i]
			q.Ts = ts
			c.Process(&q)
		}
		for i := 0; i < 4; i++ {
			ts++
			q := flows[i]
			q.Ts = ts
			c.Process(&q)
		}
		ts++
		q := flows[4]
		q.Ts = ts
		c.Process(&q) // demotes flows[0] into E
		p1 := flows[0]
		p1.Ts = 10_000
		_, r1 := c.Process(&p1)
		p2 := flows[0]
		p2.Ts = 11_000
		_, r2 := c.Process(&p2)
		return r1.Outcome, r2.Outcome
	}
	f, s := run(LRU, LPC)
	if f != EHit || s != PHit {
		t.Fatalf("lru-lpc: outcomes %v,%v, want e-hit then p-hit (promotion)", f, s)
	}
	f, s = run(FIFO, S3FIFO)
	if f != EHit || s != EHit {
		t.Errorf("s3fifo: outcomes %v,%v, want e-hit twice (lazy promotion)", f, s)
	}
}

// collideRow finds n distinct flows whose records land in pkt(0)'s row
// of c, without processing them.
func collideRow(t *testing.T, c *Cache, n int) []packet.Packet {
	t.Helper()
	base := pkt(0, 1)
	row := c.rowIndex(base.Key().Hash())
	var out []packet.Packet
	for i := 0; len(out) < n && i < 200_000; i++ {
		p := pkt(i, 1)
		if c.rowIndex(p.Key().Hash()) == row {
			out = append(out, p)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d colliding flows", len(out), n)
	}
	return out
}

func TestS3FIFOQuickDemotion(t *testing.T) {
	// A P victim with freq 0 (inserted, never re-hit) bypasses E and goes
	// straight to a ring; a victim with freq > 0 is demoted to E instead.
	cfg := smallConfig()
	cfg.PolicyP, cfg.PolicyE = FIFO, S3FIFO
	c := New(cfg)
	flows := collideRow(t, c, 5)
	for i := 0; i < 4; i++ { // P full, all freq 0
		q := flows[i]
		q.Ts = int64(i + 1)
		c.Process(&q)
	}
	before := c.Stats().Evictions
	// 5th flow: FIFO P-victim is flows[0] (first inserted), freq 0 →
	// must evict to ring, not demote.
	q := flows[4]
	q.Ts = 100
	c.Process(&q)
	if got := c.Stats().Evictions; got != before+1 {
		t.Errorf("evictions = %d, want %d (freq-0 victim must bypass E)", got, before+1)
	}
	if _, _, ok := c.Lookup(flows[0].Key()); ok {
		t.Error("freq-0 victim still resident; want quick demotion to ring")
	}

	// Same setup, but re-hit the oldest record first so freq > 0: the
	// victim must survive in E (demoted, not evicted).
	c2 := New(cfg)
	flows = collideRow(t, c2, 5)
	for i := 0; i < 4; i++ {
		q := flows[i]
		q.Ts = int64(i + 1)
		c2.Process(&q)
	}
	hot := flows[0]
	hot.Ts = 50
	c2.Process(&hot) // freq 1
	before = c2.Stats().Evictions
	q = flows[4]
	q.Ts = 100
	c2.Process(&q)
	if got := c2.Stats().Evictions; got != before {
		t.Errorf("evictions = %d, want %d (freq>0 victim must demote to E)", got, before)
	}
	if _, _, ok := c2.Lookup(flows[0].Key()); !ok {
		t.Error("freq>0 victim evicted; want demotion to E")
	}
}

// TestConfigValidatePolicyNames: every known name parses to a pair Validate
// accepts and PolicyName names back; an unknown name is an error that lists
// the known ones, and Validate refuses S3FIFO in P, S3FIFO in E beside
// anything but FIFO in P, and out-of-range values.
func TestConfigValidatePolicyNames(t *testing.T) {
	for _, name := range KnownPolicies() {
		p, e, err := ParsePolicy(name)
		if err != nil {
			t.Errorf("builtin policy %q rejected: %v", name, err)
			continue
		}
		if got := PolicyName(p, e); got != name {
			t.Errorf("PolicyName(ParsePolicy(%q)) = %q", name, got)
		}
		cfg := smallConfig()
		cfg.PolicyP, cfg.PolicyE = p, e
		if err := cfg.Validate(); err != nil {
			t.Errorf("policy %q: Validate = %v", name, err)
		}
	}
	_, _, err := ParsePolicy("no-such-policy")
	if err == nil {
		t.Fatal("unknown policy name accepted")
	}
	if !strings.Contains(err.Error(), "no-such-policy") || !strings.Contains(err.Error(), PolicyNameS3FIFO) {
		t.Errorf("error %q should name the bad policy and list known ones", err)
	}
	for _, pair := range [][2]Policy{{S3FIFO, S3FIFO}, {S3FIFO, LPC}, {LRU, S3FIFO}, {LPC, S3FIFO}, {Policy(9), LPC}, {LRU, Policy(9)}} {
		cfg := smallConfig()
		cfg.PolicyP, cfg.PolicyE = pair[0], pair[1]
		if cfg.Validate() == nil {
			t.Errorf("policy pair %v accepted", pair)
		}
	}
}
