package p4switch

import (
	"fmt"
	"math/bits"
	"sort"

	"smartwatch/internal/packet"
)

// Action is the switch's per-packet forwarding decision.
type Action uint8

// Actions.
const (
	// Forward sends the packet straight to its destination (the bulk of
	// benign traffic; no sNIC involvement).
	Forward Action = iota
	// ToSNIC mirrors the packet through the sNIC-host subsystem
	// ("bump-in-the-wire" path).
	ToSNIC
	// Drop discards the packet (blacklisted source).
	Drop
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ToSNIC:
		return "to-snic"
	case Drop:
		return "drop"
	default:
		return "forward"
	}
}

// Config sizes the switch resources.
type Config struct {
	// SRAMBytes is the memory available to monitoring state (the paper
	// cites ~100 MB-class ASIC SRAM; per-experiment budgets are smaller).
	SRAMBytes int
	// Stages bounds the match-action pipeline depth (10–20 on Tofino).
	Stages int
	// MaxWhitelist bounds exact-match whitelist entries.
	MaxWhitelist int
}

// DefaultConfig returns a Tofino-like resource envelope.
func DefaultConfig() Config {
	return Config{SRAMBytes: 100 << 20, Stages: 12, MaxWhitelist: 1 << 16}
}

// Switch is one programmable switch running monitoring queries alongside
// its forwarding tables.
type Switch struct {
	cfg     Config
	queries []Query
	regs    [][]uint64 // [query][slot]
	// steer holds per-query sets of fired (masked) keys whose subsequent
	// packets are mirrored to the sNIC, by query name: entries outlive a
	// re-programmed query set. They are the control plane's copy (SRAM
	// accounting, dumps); packets probe st.steer, compiled from them.
	steer map[string]*set[packet.Addr]
	// st is compiled from queries and steer; stale marks it for a rebuild.
	st    stages
	stale bool
	// bound is the last tracker apply fed; fused is whether it was built
	// over the installed set, decided once per tracker and install.
	bound *Tracker
	fused bool
	// whitelist short-circuits benign flows past steering.
	whitelist set[packet.FlowKey]
	// blacklist drops confirmed attackers at line rate.
	blacklist set[packet.Addr]
	stats     SwitchStats
}

// SwitchStats counts forwarding decisions and register traffic.
type SwitchStats struct {
	Forwarded, Steered, Dropped  uint64
	WhitelistHits, BlacklistHits uint64
	RegisterOps                  uint64
	Intervals                    uint64
}

// New builds a switch; queries are installed with InstallQueries.
func New(cfg Config) *Switch {
	if cfg.SRAMBytes <= 0 || cfg.Stages <= 0 {
		panic("p4switch: invalid config")
	}
	return &Switch{
		cfg:       cfg,
		steer:     map[string]*set[packet.Addr]{},
		whitelist: set[packet.FlowKey]{hash: packet.FlowKey.Hash},
		blacklist: set[packet.Addr]{hash: addrHash},
	}
}

// bytesPerSlot is the register width (a 64-bit counter).
const bytesPerSlot = 8

// whitelistEntryBytes is the exact-match entry cost (13 B key + overhead).
const whitelistEntryBytes = 32

// steerEntryBytes is the TCAM/SRAM cost of one steering prefix entry.
const steerEntryBytes = 16

// stagesPerQuery is the pipeline depth one query consumes (hash, register
// update, threshold compare).
const stagesPerQuery = 2

// fixedStages covers forwarding, whitelist, blacklist and steering tables.
const fixedStages = 4

// maxQueries bounds the installed set: Process keeps one match bit per
// query in a word. A real pipeline runs out of stages long before.
const maxQueries = 64

// InstallQueries replaces the query set (the control loop re-programs the
// switch between intervals). It fails if the set exceeds the pipeline or
// SRAM budget; previously collected register state is discarded.
func (s *Switch) InstallQueries(queries []Query) error {
	need := fixedStages + stagesPerQuery*len(queries)
	if need > s.cfg.Stages {
		return fmt.Errorf("p4switch: %d queries need %d stages, have %d", len(queries), need, s.cfg.Stages)
	}
	if len(queries) > maxQueries {
		return fmt.Errorf("p4switch: %d queries, at most %d can be installed", len(queries), maxQueries)
	}
	bytes := 0
	names := make(map[string]bool, len(queries))
	for _, q := range queries {
		if err := q.validate(); err != nil {
			return err
		}
		// Steer entries and tracker candidates are kept by name.
		if names[q.Name] {
			return fmt.Errorf("p4switch: two queries named %q", q.Name)
		}
		names[q.Name] = true
		bytes += q.Slots * bytesPerSlot
	}
	if total := bytes + s.tableBytes(); total > s.cfg.SRAMBytes {
		return fmt.Errorf("p4switch: queries need %d B SRAM, have %d", total, s.cfg.SRAMBytes)
	}
	s.queries = append([]Query(nil), queries...)
	s.regs = make([][]uint64, len(queries))
	for i, q := range queries {
		s.regs[i] = make([]uint64, q.Slots)
	}
	s.stale, s.bound = true, nil
	return nil
}

// Queries returns the installed query set.
func (s *Switch) Queries() []Query { return append([]Query(nil), s.queries...) }

func (s *Switch) tableBytes() int {
	return s.whitelist.n*whitelistEntryBytes + (s.blacklist.n+s.SteerCount())*steerEntryBytes
}

// SRAMBytesUsed reports monitoring-state SRAM occupancy (registers +
// control tables).
func (s *Switch) SRAMBytesUsed() int {
	n := s.tableBytes()
	for i := range s.regs {
		n += len(s.regs[i]) * bytesPerSlot
	}
	return n
}

// Occupancy is SRAMBytesUsed over the budget.
func (s *Switch) Occupancy() float64 {
	return float64(s.SRAMBytesUsed()) / float64(s.cfg.SRAMBytes)
}

// Process runs one packet through the pipeline and returns the forwarding
// decision. Register state for every installed query is updated regardless
// of the decision (the queries monitor passively).
func (s *Switch) Process(p *packet.Packet) Action {
	return s.process(p, nil, 0, nil)
}

// process is Process for a caller that may already hold the packet's flow
// identity (key non-nil, hash its Hash: the whitelist is probed with them,
// not with a second canonicalisation) and may want tr to observe the
// packet (tr non-nil).
func (s *Switch) process(p *packet.Packet, key *packet.FlowKey, hash uint64, tr *Tracker) Action {
	return s.apply(p, key, hash, tr, s.classify(p))
}

// apply is the effectful half of process, for a packet classified under
// the current stages: blacklist, register updates, whitelist (both tables
// are read per packet: detector reactions rewrite them between packets),
// then the class's verdict. A tracker built over the installed queries is
// fed from the register loop; any other one, and every tracker for a
// blacklisted packet, runs its own pass.
func (s *Switch) apply(p *packet.Packet, key *packet.FlowKey, hash uint64, tr *Tracker, c Class) Action {
	if tr != nil && tr != s.bound {
		s.bound, s.fused = tr, tr.alignedWith(s.queries)
	}
	fused := tr != nil && s.fused
	// Blacklist: confirmed attackers are dropped at line rate.
	if s.blacklist.has(&p.Tuple.SrcIP, addrHash(p.Tuple.SrcIP)) {
		if tr != nil {
			tr.Observe(p)
		}
		s.stats.Dropped++
		s.stats.BlacklistHits++
		return Drop
	}
	if tr != nil && !fused {
		tr.Observe(p)
	}

	// Register updates, one per counted query in query order.
	for m := c.count; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		q := &s.queries[i]
		k := q.key(p)
		if fused {
			tr.note(i, k)
		}
		slot := packet.HashAddr(k, uint64(i)+0x9e37) % uint64(len(s.regs[i]))
		s.regs[i][slot] += q.amount(p)
		s.stats.RegisterOps++
	}

	// Whitelisted flows bypass steering (the hoverboard shortcut). A
	// caller that brought no identity has it derived here, so skip that
	// while the table is empty.
	if s.whitelist.n != 0 {
		if key == nil {
			var k packet.FlowKey
			key, hash = &k, p.Tuple.Identity(&k)
		}
		if s.whitelist.has(key, hash) {
			s.stats.Forwarded++
			s.stats.WhitelistHits++
			return Forward
		}
	}

	// Steering: packets of fired subsets go to the sNIC.
	if c.steer {
		s.stats.Steered++
		return ToSNIC
	}
	s.stats.Forwarded++
	return Forward
}

// EndInterval closes a monitoring interval: it scans every query's
// registers, reports slots above threshold (attributed to the keys seen),
// and clears the registers. Because registers are hash-indexed, aliased
// keys fire together — the coarse-grained behaviour the sNIC tier refines.
//
// The switch cannot invert a hash, so callers pass the candidate keys seen
// this interval per query (the control plane learns them from the sNIC /
// sampled packets in real deployments; the simulator passes the exact
// candidates).
func (s *Switch) EndInterval(candidates map[string][]packet.Addr) []FiredKey {
	s.stats.Intervals++
	var fired []FiredKey
	for i := range s.queries {
		q := &s.queries[i]
		seen := map[packet.Addr]bool{}
		for _, k := range candidates[q.Name] {
			mk := k.Prefix(q.PrefixBits)
			if seen[mk] {
				continue
			}
			seen[mk] = true
			slot := packet.HashAddr(mk, uint64(i)+0x9e37) % uint64(len(s.regs[i]))
			if v := s.regs[i][slot]; v >= q.Threshold {
				fired = append(fired, FiredKey{Query: q.Name, Key: mk, PrefixBits: q.PrefixBits, Value: v})
			}
		}
		clear(s.regs[i])
	}
	sort.Slice(fired, func(a, b int) bool {
		if fired[a].Query != fired[b].Query {
			return fired[a].Query < fired[b].Query
		}
		return fired[a].Key < fired[b].Key
	})
	return fired
}

// Steer installs mirror entries so subsequent packets of the fired subset
// go to the sNIC. An entry already installed is left as it is; a new one
// fails when SRAM is exhausted.
func (s *Switch) Steer(fk FiredKey) error {
	m := s.steer[fk.Query]
	if m.has(&fk.Key, addrHash(fk.Key)) {
		return nil
	}
	if s.SRAMBytesUsed()+steerEntryBytes > s.cfg.SRAMBytes {
		return fmt.Errorf("p4switch: SRAM exhausted installing steer entry")
	}
	if m == nil {
		m = &set[packet.Addr]{hash: addrHash}
		s.steer[fk.Query] = m
	}
	m.add(fk.Key)
	s.stale = true
	return nil
}

// Unsteer removes a mirror entry (subset reclassified as benign).
func (s *Switch) Unsteer(query string, key packet.Addr) {
	if m := s.steer[query]; m.has(&key, addrHash(key)) {
		m.del(key)
		s.stale = true
	}
}

// SteerCount returns the installed mirror-entry count.
func (s *Switch) SteerCount() int {
	n := 0
	for _, m := range s.steer {
		n += m.n
	}
	return n
}

// Whitelist installs an exact-match benign-flow entry; packets of the flow
// bypass sNIC steering from now on. It fails when the table is full or
// SRAM is exhausted.
func (s *Switch) Whitelist(k packet.FlowKey) error {
	if s.whitelist.n >= s.cfg.MaxWhitelist {
		return fmt.Errorf("p4switch: whitelist full (%d entries)", s.cfg.MaxWhitelist)
	}
	if s.SRAMBytesUsed()+whitelistEntryBytes > s.cfg.SRAMBytes {
		return fmt.Errorf("p4switch: SRAM exhausted installing whitelist entry")
	}
	s.whitelist.add(k)
	return nil
}

// WhitelistCount returns the number of whitelisted flows.
func (s *Switch) WhitelistCount() int { return s.whitelist.n }

// Blacklist installs a drop rule for the source address.
func (s *Switch) Blacklist(a packet.Addr) { s.blacklist.add(a) }

// Blacklisted reports whether the address is blocked.
func (s *Switch) Blacklisted(a packet.Addr) bool { return s.blacklist.has(&a, addrHash(a)) }

// WhitelistEntries lists the installed benign-flow keys in a
// deterministic order (canonical key fields ascending) — the control
// API's table dump. O(n log n); intended for operator queries, not the
// datapath.
func (s *Switch) WhitelistEntries() []packet.FlowKey {
	out := s.whitelist.keys()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.LoIP != b.LoIP {
			return a.LoIP < b.LoIP
		}
		if a.HiIP != b.HiIP {
			return a.HiIP < b.HiIP
		}
		if a.LoPort != b.LoPort {
			return a.LoPort < b.LoPort
		}
		if a.HiPort != b.HiPort {
			return a.HiPort < b.HiPort
		}
		return a.Proto < b.Proto
	})
	return out
}

// BlacklistEntries lists the blocked source addresses in ascending order
// (deterministic control-API dump).
func (s *Switch) BlacklistEntries() []packet.Addr {
	out := s.blacklist.keys()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns the cumulative decision counters.
func (s *Switch) Stats() SwitchStats { return s.stats }
