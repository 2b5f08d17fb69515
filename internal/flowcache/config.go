// Package flowcache implements SmartWatch's core contribution: the sNIC
// FlowCache (paper §3.2–3.3) — a contiguous hash table of rows × buckets
// split into a Primary (P) and an Eviction (E) buffer with a hybrid
// LRU-LPC replacement policy, flow-record pinning for stateful detectors,
// ring buffers that carry evictions to the host, and a reconfigurable
// General/Lite dual-mode layout switched by an EWMA of the packet arrival
// rate (Algorithms 1–4 of the paper).
//
// The cache is safe for concurrent use: the update path is lock-free in
// the sense of Appendix 9.1/9.2 (per-bucket update counters + atomic adds;
// writers take a per-row latch and drain updaters before swapping entries).
// The discrete-event sNIC simulator drives it single-threaded and charges
// cycles from the operation counts each call reports.
package flowcache

import "fmt"

// Mode selects the active bucket layout (paper §3.3).
type Mode uint32

// Operating modes.
const (
	// General probes P then E across all buckets of a row: best hit rate,
	// lossless up to ~30 Mpps on the modelled 40 GbE sNIC.
	General Mode = iota
	// Lite probes only a b-bucket slice of the row selected by the high
	// hash bits: sustains line rate (43 Mpps) at a higher eviction rate.
	Lite
)

// String names the mode.
func (m Mode) String() string {
	if m == Lite {
		return "lite"
	}
	return "general"
}

// Policy is a replacement policy for one buffer.
type Policy uint8

// Replacement policies: the three evaluated in Fig. 5.
const (
	// LRU evicts the least-recently-updated record.
	LRU Policy = iota
	// LPC evicts the record with the least packet count.
	LPC
	// FIFO evicts the record inserted earliest.
	FIFO
)

// Config shapes a Cache. The zero value is unusable; call Validate or use
// DefaultConfig. The paper's flagship configuration is
// rows=2^21, B=12, General split (4,8), Lite width 2, policies LRU/LPC.
type Config struct {
	// RowBits sets the number of hash rows (2^RowBits). Paper: 21.
	RowBits int
	// Buckets is the total buckets per row (B), at most MaxBuckets.
	// Paper: 12.
	Buckets int
	// PrimaryBuckets is the P-buffer width in General mode (x of "(x,y)").
	// PrimaryBuckets+EvictionBuckets must equal Buckets.
	PrimaryBuckets int
	// EvictionBuckets is the E-buffer width in General mode (y of "(x,y)").
	// Zero means a single undivided buffer governed by PolicyP.
	EvictionBuckets int
	// LiteBuckets is the slice width b probed in Lite mode. Paper: 2.
	LiteBuckets int
	// PolicyP / PolicyE are the per-buffer replacement policies (paper's
	// winner: LRU in P, LPC in E).
	PolicyP, PolicyE Policy
	// Rings is the number of eviction ring buffers. Paper: 8.
	Rings int
	// RingEntries is the capacity of each ring. Paper: 64K.
	RingEntries int
	// PinStarveEvict enables the pin-starvation escape valve: when every
	// candidate bucket for an insert is pinned (the all-pinned punt storm
	// a ConnExhaust attack manufactures), the stalest pinned candidate is
	// evicted to the host rings and the new flow inserted in its place,
	// instead of punting the packet. The evicted record reaches the host
	// through the normal ring path, so no state is lost — the detector
	// continues on the host side. Off by default: the seed punts, and the
	// determinism goldens depend on that unless a config opts in.
	PinStarveEvict bool
}

// DefaultConfig returns the paper's flagship General (4,8) configuration
// scaled to rowBits (use 21 to match the paper's 25M-entry cache; tests
// and laptop-scale experiments use fewer).
func DefaultConfig(rowBits int) Config {
	return Config{
		RowBits: rowBits, Buckets: 12,
		PrimaryBuckets: 4, EvictionBuckets: 8,
		LiteBuckets: 2,
		PolicyP:     LRU, PolicyE: LPC,
		Rings: 8, RingEntries: 64 * 1024,
	}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.RowBits < 1 || c.RowBits > 28 {
		return fmt.Errorf("flowcache: RowBits %d out of range [1,28]", c.RowBits)
	}
	if c.Buckets < 1 || c.Buckets > MaxBuckets {
		// The upper bound is the row word's occupancy mask (row.go).
		return fmt.Errorf("flowcache: Buckets %d out of range [1,%d]", c.Buckets, MaxBuckets)
	}
	if c.PrimaryBuckets < 1 || c.EvictionBuckets < 0 || c.PrimaryBuckets+c.EvictionBuckets != c.Buckets {
		return fmt.Errorf("flowcache: split (%d,%d) must sum to Buckets %d",
			c.PrimaryBuckets, c.EvictionBuckets, c.Buckets)
	}
	if c.LiteBuckets < 1 || c.LiteBuckets > c.Buckets {
		return fmt.Errorf("flowcache: LiteBuckets %d out of [1,%d]", c.LiteBuckets, c.Buckets)
	}
	if c.Buckets%c.LiteBuckets != 0 {
		// Lite slices must tile the row exactly or General->Lite cleanup
		// could overlap slices and lose records.
		return fmt.Errorf("flowcache: Buckets %d not divisible by LiteBuckets %d", c.Buckets, c.LiteBuckets)
	}
	if c.Rings < 1 || c.RingEntries < 1 {
		return fmt.Errorf("flowcache: need at least one ring with capacity")
	}
	if c.PolicyP > FIFO || c.PolicyE > FIFO {
		return fmt.Errorf("flowcache: invalid policy pair (%d,%d); each takes lru=0 lpc=1 fifo=2", c.PolicyP, c.PolicyE)
	}
	return nil
}

// Rows returns the number of hash rows.
func (c Config) Rows() int { return 1 << c.RowBits }

// Entries returns the total record capacity.
func (c Config) Entries() int { return c.Rows() * c.Buckets }

// ModeledRecordBytes is the per-record footprint of the paper's packed
// sNIC layout (5-tuple, packet counter, timestamps, state), used for the
// memory figures reported by the experiments. The Go representation is
// larger; MemoryBytes reports the modelled hardware footprint.
const ModeledRecordBytes = 32

// MemoryBytes returns the modelled sNIC DRAM footprint of the table.
func (c Config) MemoryBytes() int { return c.Entries() * ModeledRecordBytes }
