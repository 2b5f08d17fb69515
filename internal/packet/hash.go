package packet

// The FlowCache needs a fast 64-bit mix with good avalanche behaviour over a
// 13-byte key, and it must be symmetric: hash(a->b) == hash(b->a). We get
// symmetry by hashing the canonical FlowKey (smaller endpoint first), the
// same construction the paper borrows from symmetric receive-side scaling.
// The mixer is the splitmix64 finalizer, which passes avalanche tests and
// needs no tables or allocations.

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SymmetricHash returns the 64-bit symmetric flow hash of the tuple. Both
// directions of a session hash to the same value.
func (t FiveTuple) SymmetricHash() uint64 {
	var k FlowKey
	return t.Identity(&k)
}

// Hash returns the 64-bit hash of the canonical flow key (the value
// FiveTuple.Identity computes without going through the key).
func (k FlowKey) Hash() uint64 {
	h := mix64(uint64(k.LoIP)<<32 | uint64(k.HiIP))
	h = mix64(h ^ (uint64(k.LoPort)<<32 | uint64(k.HiPort)<<16 | uint64(k.Proto)))
	return h
}

// HashSeed returns a seeded variant of the flow-key hash. Sketches use
// independent seeds per row.
func (k FlowKey) HashSeed(seed uint64) uint64 {
	return mix64(k.Hash() ^ mix64(seed))
}

// DirectionalHash hashes the tuple as-is (no canonicalisation). Switch
// queries that key on (srcIP,dstIP) pairs or on a single field use this.
func (t FiveTuple) DirectionalHash() uint64 {
	h := mix64(uint64(t.SrcIP)<<32 | uint64(t.DstIP))
	h = mix64(h ^ (uint64(t.SrcPort)<<32 | uint64(t.DstPort)<<16 | uint64(t.Proto)))
	return h
}

// HashAddr hashes a single address with a seed; used for prefix-keyed
// switch registers and sketch rows.
func HashAddr(a Addr, seed uint64) uint64 {
	return mix64(uint64(a) ^ mix64(seed))
}

// Hash64 exposes the raw mixer for other packages that need a cheap
// avalanche mix (e.g. worm payload signatures).
func Hash64(x uint64) uint64 { return mix64(x) }
