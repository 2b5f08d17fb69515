package p4switch

import "smartwatch/internal/packet"

// set is the switch's exact-match table as the per-packet path wants it:
// open-addressed, linear-probed, power-of-two sized and at most half full
// (setLoad), so a probe is an index computed from a hash the caller
// already has and, nearly always, one slot. A set is the only copy of its
// table — the control-plane dumps iterate it — and entries are inserted
// and deleted in place: del shifts the rest of the probe run back over the
// hole, so no slot is ever a tombstone and a run ends at its first free
// slot. The zero key is a member like any other (0.0.0.0 can be steered).
type set[K comparable] struct {
	slots []slot[K]
	n     int
	// hash is what has is probed with: FlowKey.Hash, which the tier
	// context carries, for the whitelist; addrHash for the address tables.
	hash func(K) uint64
}

type slot[K comparable] struct {
	key  K
	used bool
}

// setLoad is the inverse load factor: a set doubles before an insert that
// would leave more than 1/setLoad of its slots used.
const setLoad = 2

// addrHash is Fibonacci hashing; the product's top half is the well-mixed
// one and find masks the low bits.
func addrHash(a packet.Addr) uint64 { return uint64(a) * 0x9e3779b97f4a7c15 >> 32 }

// find returns the slot holding k, whose hash is h, or -1. Nil-safe: a
// query that never fired has no steer set.
func (s *set[K]) find(k *K, h uint64) int {
	if s == nil || s.n == 0 {
		return -1
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; s.slots[i].used; i = (i + 1) & mask {
		if s.slots[i].key == *k {
			return int(i)
		}
	}
	return -1
}

func (s *set[K]) has(k *K, h uint64) bool { return s.find(k, h) >= 0 }

// len is the member count (nil-safe, like find).
func (s *set[K]) len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// add inserts k; a no-op when present.
func (s *set[K]) add(k K) {
	if s.has(&k, s.hash(k)) {
		return
	}
	if (s.n+1)*setLoad > len(s.slots) {
		old := s.slots
		s.slots = make([]slot[K], max(8, 2*len(old)))
		for i := range old {
			if old[i].used {
				s.place(old[i].key)
			}
		}
	}
	s.place(k)
	s.n++
}

// place writes an absent key into the first free slot of its probe run.
func (s *set[K]) place(k K) {
	mask := uint64(len(s.slots) - 1)
	i := s.hash(k) & mask
	for s.slots[i].used {
		i = (i + 1) & mask
	}
	s.slots[i] = slot[K]{key: k, used: true}
}

// del removes k; a no-op when absent. Each later entry of the run moves
// into the hole unless that would put it ahead of its home slot.
func (s *set[K]) del(k K) {
	at := s.find(&k, s.hash(k))
	if at < 0 {
		return
	}
	mask := uint64(len(s.slots) - 1)
	hole := uint64(at)
	for j := (hole + 1) & mask; s.slots[j].used; j = (j + 1) & mask {
		if (j-s.hash(s.slots[j].key))&mask >= (j-hole)&mask {
			s.slots[hole], hole = s.slots[j], j
		}
	}
	s.slots[hole] = slot[K]{}
	s.n--
}

// keys lists the members in table order.
func (s *set[K]) keys() []K {
	out := make([]K, 0, s.len())
	if s != nil {
		for i := range s.slots {
			if s.slots[i].used {
				out = append(out, s.slots[i].key)
			}
		}
	}
	return out
}
