// Package host implements the host tier of SmartWatch (§3.4): the global
// flow-record pool that aggregates sNIC exports, the Redis-style key-value
// flow log, the hierarchical timing wheel that buffers suspect TCP RST
// packets, a Bloom filter accelerating the RST-uniqueness check, and the
// one network-function (NF) slot behind the paper's SR-IOV host
// processing port.
package host

import (
	"math"

	"smartwatch/internal/packet"
)

// Bloom is a classic Bloom filter. The forged-RST pipeline (§5.1.2) uses
// one to skip the timing-wheel scan for first-seen RSTs: a negative lookup
// proves uniqueness in O(k) instead of a wheel scan.
type Bloom struct {
	bits   []uint64
	m      uint64 // bit count
	k      int    // hash functions
	adds   uint64
	lookup uint64
	hits   uint64
}

// NewBloom sizes a filter for n expected items at the given target false
// positive rate.
func NewBloom(n int, fpRate float64) *Bloom {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Bloom{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

func (b *Bloom) positions(h uint64) (uint64, uint64) {
	// Kirsch–Mitzenmacher double hashing.
	h2 := packet.Hash64(h ^ 0x5851f42d4c957f2d)
	return h, h2 | 1
}

// Add inserts a 64-bit hashed item.
func (b *Bloom) Add(h uint64) {
	h1, h2 := b.positions(h)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	b.adds++
}

// Contains reports possible membership (false positives possible, false
// negatives impossible).
func (b *Bloom) Contains(h uint64) bool {
	b.lookup++
	h1, h2 := b.positions(h)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	b.hits++
	return true
}

// Reset clears the filter (periodic rotation bounds staleness).
func (b *Bloom) Reset() {
	clear(b.bits)
	b.adds = 0
}

// Adds returns the insert count since the last reset.
func (b *Bloom) Adds() uint64 { return b.adds }
