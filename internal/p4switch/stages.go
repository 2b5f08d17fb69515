package p4switch

import (
	"math/bits"

	"smartwatch/internal/packet"
)

// stages is the installed query set compiled into per-field match tables,
// the shape a P4 compiler gives it: a header field indexes a table of the
// queries (bit i = queries[i]) that field admits, and a packet's matches
// are the AND of its lookups. compile derives them from the query set and
// the per-query steer sets, which stay the source of truth.
type stages struct {
	// proto / flags: the queries whose Proto, and whose FlagsSet and
	// FlagsClear, admit the packet's protocol / TCP-flag byte.
	proto, flags [256]uint64
	// count: the queries whose amount is non-zero at a TCP-flag byte, for
	// a packet of non-zero size; sized: those whose amount is its size.
	count [256]uint64
	sized uint64
	// rest: the queries that also constrain ports or size, with just that
	// part of their filter; restMask is their bits.
	rest     []residual
	restMask uint64
	// steer[b] is prefix length b's steer table; lengths has bit b set
	// when that table holds an entry of an installed query.
	steer   [33]steerTable
	lengths uint64
}

type residual struct {
	bit  uint64
	pred Predicate
}

// steerTable maps a masked address to the queries of one prefix length
// that steered it. A rule matches both directions of its subset, so the
// key field does not enter: a packet probes with its source and its
// destination prefix. Open-addressed like set, but rebuilt rather than
// edited, so a slot is free exactly when its query bits are zero.
type steerTable struct {
	queries uint64 // installed queries with entries here
	slots   []steerSlot
}

type steerSlot struct {
	key     packet.Addr
	queries uint64
}

func (t *steerTable) lookup(a packet.Addr) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := addrHash(a) & mask; t.slots[i].queries != 0; i = (i + 1) & mask {
		if t.slots[i].key == a {
			return t.slots[i].queries
		}
	}
	return 0
}

func (t *steerTable) insert(a packet.Addr, bit uint64) {
	mask := uint64(len(t.slots) - 1)
	i := addrHash(a) & mask
	for t.slots[i].queries != 0 && t.slots[i].key != a {
		i = (i + 1) & mask
	}
	t.slots[i].key = a
	t.slots[i].queries |= bit
}

// Class is a packet's classification: the queries whose registers it
// updates, and whether a steer entry of a query it matches covers it. It
// holds until the next InstallQueries, Steer or Unsteer.
type Class struct {
	count uint64
	steer bool
}

// Steered reports whether the packet goes to the sNIC unless the
// blacklist or whitelist, read when the class is applied, says otherwise.
func (c Class) Steered() bool { return c.steer }

// classify is the pure half of process; it first brings the stages up to
// date if the control plane changed them.
func (s *Switch) classify(p *packet.Packet) Class {
	if s.stale {
		s.compile()
	}
	st := &s.st
	m := st.proto[p.Tuple.Proto] & st.flags[p.Flags]
	if m&st.restMask != 0 {
		for i := range st.rest {
			if r := &st.rest[i]; m&r.bit != 0 && !r.pred.Match(p) {
				m &^= r.bit
			}
		}
	}
	c := Class{count: m & st.count[p.Flags]}
	if p.Size == 0 {
		c.count &^= st.sized
	}
	for ls := st.lengths; ls != 0; ls &= ls - 1 {
		b := bits.TrailingZeros64(ls)
		if t := &st.steer[b]; m&t.queries != 0 &&
			(t.lookup(p.Tuple.SrcIP.Prefix(b))&m != 0 || t.lookup(p.Tuple.DstIP.Prefix(b))&m != 0) {
			c.steer = true
			break
		}
	}
	return c
}

// compile rebuilds the stages from the installed queries and the steer
// sets, in the storage of the previous build: it allocates only when a
// table outgrows it. Predicate.Match and Query.amount, evaluated on one
// probe packet per field value, define every entry.
func (s *Switch) compile() {
	st := &s.st
	st.proto, st.flags, st.count = [256]uint64{}, [256]uint64{}, [256]uint64{}
	st.sized, st.rest, st.restMask = 0, st.rest[:0], 0
	var probe packet.Packet
	for i := range s.queries {
		q, bit := &s.queries[i], uint64(1)<<uint(i)
		f := q.Filter
		for v := range 256 {
			probe.Tuple.Proto, probe.Flags, probe.Size = packet.Proto(v), packet.TCPFlags(v), 1
			if (Predicate{Proto: f.Proto}).Match(&probe) {
				st.proto[v] |= bit
			}
			if (Predicate{FlagsSet: f.FlagsSet, FlagsClear: f.FlagsClear}).Match(&probe) {
				st.flags[v] |= bit
			}
			if q.amount(&probe) != 0 {
				st.count[v] |= bit
			}
		}
		if q.Reduce == SumBytes {
			st.sized |= bit
		}
		if r := (Predicate{DstPort: f.DstPort, ServicePort: f.ServicePort, MinSize: f.MinSize}); r != (Predicate{}) {
			st.rest = append(st.rest, residual{bit, r})
			st.restMask |= bit
		}
	}

	// Size each prefix length's table for its entries, then fill it.
	need := [33]int{}
	for i := range s.queries {
		need[s.queries[i].PrefixBits] += s.steer[s.queries[i].Name].len()
	}
	st.lengths = 0
	for b, n := range need {
		t := &st.steer[b]
		t.queries = 0
		if n == 0 {
			continue
		}
		// At most 1/setLoad full; zeroed in place when the old build fits.
		size := max(8, 1<<bits.Len(uint(n*setLoad-1)))
		t.slots = append(t.slots[:0], make([]steerSlot, size)...)
		st.lengths |= 1 << uint(b)
	}
	for i := range s.queries {
		q, bit := &s.queries[i], uint64(1)<<uint(i)
		if keys := s.steer[q.Name]; keys.len() != 0 {
			t := &st.steer[q.PrefixBits]
			t.queries |= bit
			for _, sl := range keys.slots {
				if sl.used {
					t.insert(sl.key, bit)
				}
			}
		}
	}
	s.stale = false
}
