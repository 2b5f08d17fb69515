package p4switch

import (
	"testing"

	"smartwatch/internal/lpmap"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// checkSetAgainstMap drives one of the switch's sets — an lpmap.Map at
// half fill probed with hash, as the blacklist, whitelist, steer entries
// and tracker hold them — and a Go map with the same random inserts,
// deletes and lookups over a key space small enough that probe runs
// collide, wrap around the table end and get holes shifted out of them;
// after every operation the membership of the touched key, and every so
// often of the whole key space, must agree.
func checkSetAgainstMap[K comparable](t *testing.T, s *lpmap.Map[K, struct{}], hash func(K) uint64, space []K, ops int) {
	t.Helper()
	ref := map[K]bool{}
	rng := stats.NewRand(5)
	has := func(k K) bool { return s.Get(hash(k), k) != nil }
	for i := 0; i < ops; i++ {
		k := space[rng.IntN(len(space))]
		switch op := rng.IntN(8); {
		case op < 4:
			s.Put(hash(k), k)
			ref[k] = true
		case op < 7:
			if s.Del(hash(k), k) != ref[k] {
				t.Fatalf("op %d: del of %v reported present=%v, map says %v", i, k, !ref[k], ref[k])
			}
			delete(ref, k)
		}
		if has(k) != ref[k] || s.Len() != len(ref) {
			t.Fatalf("op %d on %v: has %v, len %d; map has %v, len %d", i, k, has(k), s.Len(), ref[k], len(ref))
		}
		if i%1000 != 0 {
			continue
		}
		for _, k := range space {
			if has(k) != ref[k] {
				t.Fatalf("after op %d: has(%v) = %v, map says %v", i, k, !ref[k], ref[k])
			}
		}
		got := members(s)
		if len(got) != len(ref) {
			t.Fatalf("after op %d: %d keys listed of %d", i, len(got), len(ref))
		}
		for _, k := range got {
			if !ref[k] {
				t.Fatalf("after op %d: %v listed, map says absent", i, k)
			}
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
	checkSetAgainstMap(t, &lpmap.Map[packet.Addr, struct{}]{}, addrHash, addrs, 60000)
	checkSetAgainstMap(t, &lpmap.Map[packet.FlowKey, struct{}]{}, packet.FlowKey.Hash, flows, 60000)

	// A query that never fired has no steer set: a nil one reads as empty.
	var none *lpmap.Map[packet.Addr, struct{}]
	if a := packet.Addr(7); none.Get(addrHash(a), a) != nil || none.Len() != 0 || len(members(none)) != 0 {
		t.Error("a nil set must read as empty")
	}
}
