// Package p4switch simulates the programmable-switch tier of SmartWatch: a
// Tofino-style match-action pipeline running Sonata-style aggregate
// queries in register arrays, with exact-match whitelist/blacklist tables,
// prefix-based steering of suspicious traffic subsets to the sNIC, and
// SRAM/stage accounting (the resource axis of Figs. 2 and 9).
//
// The model captures exactly what the paper uses the switch for: coarse
// per-prefix aggregation in hash-indexed registers (collisions and all),
// threshold checks at interval boundaries, and the resulting
// steer/whitelist control loop. As on the hardware, the control plane
// compiles the queries and steer entries into per-field match tables
// (stages.go), so a packet costs a few lookups whatever the number of
// queries, plus one register update per query it counts in. The packet
// path is a pure classify, valid until the next InstallQueries, Steer or
// Unsteer, and an apply that reads the blacklist and whitelist and
// updates registers, tracker and stats. Every table — blacklist,
// whitelist, steer entries, compiled steer tables, the tracker's seen
// sets — is an lpmap.Map at half fill, probed with the hash the packet
// carries (addrHash for addresses, FlowKey.Hash for the whitelist).
package p4switch

import (
	"fmt"

	"smartwatch/internal/packet"
)

// KeyField selects what a query aggregates over.
type KeyField uint8

// Key fields available to switch queries.
const (
	// KeyDstIP keys on the destination address (at the query's prefix
	// granularity) — "SSH connections per destination prefix".
	KeyDstIP KeyField = iota
	// KeySrcIP keys on the source address — "probes per remote host".
	KeySrcIP
)

// String names the field.
func (k KeyField) String() string {
	if k == KeySrcIP {
		return "srcIP"
	}
	return "dstIP"
}

// Reduce selects a query's aggregation function. All are single-register
// updates, the only kind a line-rate pipeline affords (§2.2.1).
type Reduce uint8

// Aggregations.
const (
	// CountPackets counts matching packets.
	CountPackets Reduce = iota
	// CountSYN counts TCP connection attempts (SYN without ACK).
	CountSYN
	// CountRST counts TCP resets.
	CountRST
	// SumBytes accumulates matching bytes.
	SumBytes
)

// String names the aggregation.
func (r Reduce) String() string {
	switch r {
	case CountSYN:
		return "count-syn"
	case CountRST:
		return "count-rst"
	case SumBytes:
		return "sum-bytes"
	default:
		return "count-packets"
	}
}

// Predicate is a declarative packet filter, the match part of a
// match-action entry. Zero-valued fields match everything.
type Predicate struct {
	// Proto restricts the IP protocol (0 = any).
	Proto packet.Proto
	// DstPort restricts the destination port (0 = any).
	DstPort uint16
	// ServicePort matches packets whose source OR destination port equals
	// it — steering rules use this so both directions of a service's
	// sessions reach the sNIC.
	ServicePort uint16
	// FlagsSet requires these TCP flags set.
	FlagsSet packet.TCPFlags
	// FlagsClear requires these TCP flags clear.
	FlagsClear packet.TCPFlags
	// MinSize matches packets of at least this wire length.
	MinSize uint16
}

// Match evaluates the predicate: one expression, so that it inlines into
// Tracker.Observe and the compiled residual check. It is the definition
// the compiled stages are built from.
func (pr Predicate) Match(p *packet.Packet) bool {
	return (pr.Proto == 0 || p.Tuple.Proto == pr.Proto) &&
		(pr.DstPort == 0 || p.Tuple.DstPort == pr.DstPort) &&
		(pr.ServicePort == 0 || p.Tuple.DstPort == pr.ServicePort || p.Tuple.SrcPort == pr.ServicePort) &&
		p.Flags.Has(pr.FlagsSet) && p.Flags&pr.FlagsClear == 0 && p.Size >= pr.MinSize
}

// Query is one aggregate-traffic query (the Sonata interface the paper
// reuses to load switch queries).
type Query struct {
	// Name identifies the query in reports and steering rules.
	Name string
	// Filter selects the packets the query sees.
	Filter Predicate
	// Key is the aggregation key field.
	Key KeyField
	// PrefixBits is the key granularity (8/16/24/32); coarser prefixes
	// use less state but steer more traffic when they fire — the
	// iterative-refinement trade-off of §3.1.
	PrefixBits int
	// Reduce is the aggregation function.
	Reduce Reduce
	// Threshold fires the query for keys whose aggregate crosses it
	// within one monitoring interval.
	Threshold uint64
	// Slots is the register-array size; distinct keys hash into slots, so
	// undersized arrays alias (coarse-grained error, like the hardware).
	Slots int
}

func (q Query) validate() error {
	if q.Name == "" {
		return fmt.Errorf("p4switch: query needs a name")
	}
	if q.PrefixBits < 1 || q.PrefixBits > 32 {
		return fmt.Errorf("p4switch: query %q prefix bits %d out of range", q.Name, q.PrefixBits)
	}
	if q.Slots < 1 {
		return fmt.Errorf("p4switch: query %q needs register slots", q.Name)
	}
	if q.Threshold == 0 {
		return fmt.Errorf("p4switch: query %q needs a threshold", q.Name)
	}
	return nil
}

// key extracts the query's (masked) key from a packet.
func (q *Query) key(p *packet.Packet) packet.Addr {
	switch q.Key {
	case KeySrcIP:
		return p.Tuple.SrcIP.Prefix(q.PrefixBits)
	default:
		return p.Tuple.DstIP.Prefix(q.PrefixBits)
	}
}

// amount is the register increment for the packet.
func (q *Query) amount(p *packet.Packet) uint64 {
	switch q.Reduce {
	case CountSYN:
		if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
			return 1
		}
		return 0
	case CountRST:
		if p.Flags.Has(packet.FlagRST) {
			return 1
		}
		return 0
	case SumBytes:
		return uint64(p.Size)
	default:
		return 1
	}
}

// FiredKey is one key that crossed its query's threshold in an interval.
type FiredKey struct {
	Query string
	Key   packet.Addr
	// PrefixBits echoes the query granularity so steering rules mask
	// correctly.
	PrefixBits int
	Value      uint64
}
