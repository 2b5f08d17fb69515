package p4switch

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// checkSetAgainstMap drives a set and a Go map with the same random
// inserts, deletes and lookups over a key space small enough that probe
// runs collide, wrap around the table end and get holes shifted out of
// them; after every operation the membership of the touched key, and
// every so often of the whole key space, must agree.
func checkSetAgainstMap[K comparable](t *testing.T, s *set[K], space []K, ops int) {
	t.Helper()
	ref := map[K]bool{}
	rng := stats.NewRand(5)
	for i := 0; i < ops; i++ {
		k := space[rng.IntN(len(space))]
		switch op := rng.IntN(8); {
		case op < 4:
			s.add(k)
			ref[k] = true
		case op < 7:
			s.del(k)
			delete(ref, k)
		}
		if s.has(&k, s.hash(k)) != ref[k] || s.len() != len(ref) {
			t.Fatalf("op %d on %v: has %v, len %d; map has %v, len %d", i, k, s.has(&k, s.hash(k)), s.len(), ref[k], len(ref))
		}
		if i%1000 != 0 {
			continue
		}
		for _, k := range space {
			if s.has(&k, s.hash(k)) != ref[k] {
				t.Fatalf("after op %d: has(%v) = %v, map says %v", i, k, !ref[k], ref[k])
			}
		}
		if got := s.keys(); len(got) != len(ref) || s.len()*setLoad > len(s.slots) {
			t.Fatalf("after op %d: %d keys listed of %d, %d slots", i, len(got), len(ref), len(s.slots))
		}
	}
}

func TestSetMatchesMap(t *testing.T) {
	addrs := []packet.Addr{0, 1, ^packet.Addr(0)} // 0.0.0.0 is a key like any other
	flows := []packet.FlowKey{{}}
	rng := stats.NewRand(9)
	for i := 0; i < 300; i++ {
		addrs = append(addrs, packet.Addr(rng.Uint64()).Prefix(8+8*rng.IntN(4)))
		flows = append(flows, packet.FiveTuple{
			SrcIP: packet.Addr(rng.IntN(4)), DstIP: packet.Addr(rng.IntN(4)),
			SrcPort: uint16(rng.IntN(8)), DstPort: uint16(rng.IntN(8)), Proto: packet.ProtoTCP,
		}.Canonical())
	}
	checkSetAgainstMap(t, &set[packet.Addr]{hash: addrHash}, addrs, 60000)
	checkSetAgainstMap(t, &set[packet.FlowKey]{hash: packet.FlowKey.Hash}, flows, 60000)

	var none *set[packet.Addr]
	if a := packet.Addr(7); none.has(&a, addrHash(a)) || none.len() != 0 || len(none.keys()) != 0 {
		t.Error("a nil set must read as empty")
	}
}
