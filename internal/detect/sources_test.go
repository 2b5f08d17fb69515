package detect

import (
	"math"
	"testing"
	"unsafe"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// sourceRun feeds a detector a batch of fresh remote sources, one flow
// each, the way the platform does: a record per flow, its key and hash in
// the record and the context.
type sourceRun struct {
	recs []flowcache.Record
	p    *packet.Packet // one heap packet: the detectors see it by pointer
	base int            // sources handed out so far
}

// sourceAddr is the address of the i-th source a run hands out.
func sourceAddr(i int) packet.Addr { return packet.Addr(0x0b000000 + i<<8) } // one /24 per source

func newSourceRun(n int) *sourceRun {
	return &sourceRun{recs: make([]flowcache.Record, n), p: new(packet.Packet)}
}

// flow sets the run's packet to source i of the current batch talking to
// port dport, resets that flow's record, and returns the record and the
// context the platform would hand the chain.
func (r *sourceRun) flow(i int, ts int64, dport uint16, fl packet.TCPFlags) (*flowcache.Record, snic.Ctx) {
	src := sourceAddr(r.base + i)
	*r.p = packet.Packet{
		Ts: ts, Flags: fl, Size: 64,
		Tuple: packet.FiveTuple{SrcIP: src, DstIP: 0x0a000001, SrcPort: 40000, DstPort: dport, Proto: packet.ProtoTCP},
	}
	rec := &r.recs[i]
	var k packet.FlowKey
	h := r.p.Tuple.Identity(&k)
	*rec = flowcache.Record{Key: k}
	return rec, snic.Ctx{FlowHash: h}
}

// Per-source detector state is stored by value in maps, so a source the
// detector has never seen costs a map slot, not a heap object. A batch of
// n fresh sources, after a warm batch of n others, may allocate what a
// bare map of the detector's key and value type allocates to grow by the
// same n keys, plus log2(n) for the slices that double beside it (a
// sort's scratch, BruteForce's windows). Go's maps grow a table of at most
// 1 024 slots at a time, so that control is linear in n (33 allocations
// for 4 096 sources), not logarithmic; a heap object per source is n more.
func TestPerSourceStateDoesNotAllocate(t *testing.T) {
	const n = 4096
	byGroup := func(i int) lsGroup { return lsGroup{victim: 0x0a000001, block: sourceAddr(i)} }
	cases := []struct {
		name string
		bare float64 // the state map's own growth
		// run builds the detector and returns one batch of n sources and
		// the number of sources its state map holds.
		run func() (batch func(), held func() int)
	}{
		{"portscan/syn-rst", bareGrowth[packet.Addr, scanSource](n, sourceAddr), func() (func(), func() int) {
			det := NewPortScan(PortScanConfig{})
			r := newSourceRun(n)
			return func() {
				ts := int64(r.base) * 10
				for i := range n {
					rec, ctx := r.flow(i, ts, 80, packet.FlagSYN)
					det.OnPacket(r.p, rec, ctx)
					*r.p = r.p.Reverse()
					r.p.Flags = packet.FlagRST | packet.FlagACK
					det.OnPacket(r.p, rec, ctx)
				}
				det.Drain()
				r.base += n
			}, func() int { return len(det.sources) }
		}},
		{"portscan/syn-timeout", bareGrowth[packet.Addr, scanSource](n, sourceAddr), func() (func(), func() int) {
			det := NewPortScan(PortScanConfig{ResponseTimeoutNs: 1e9})
			r := newSourceRun(n)
			return func() {
				ts := int64(r.base) * 1e6
				for i := range n {
					rec, ctx := r.flow(i, ts, 80, packet.FlagSYN)
					det.OnPacket(r.p, rec, ctx)
				}
				det.Tick(ts + 1e9)
				det.Drain()
				r.base += n
			}, func() int { return len(det.sources) }
		}},
		{"incomplete", bareGrowth[packet.Addr, incompleteSource](n, sourceAddr), func() (func(), func() int) {
			det := NewIncomplete(1e9, 0, nil)
			r := newSourceRun(n)
			return func() {
				ts := int64(r.base) * 1e6
				for i := range n {
					rec, ctx := r.flow(i, ts, 80, packet.FlagSYN)
					det.OnPacket(r.p, rec, ctx)
				}
				det.Tick(ts + 1e9)
				det.Drain()
				r.base += n
			}, func() int { return len(det.sources) }
		}},
		{"bruteforce/failures", bareGrowth[packet.Addr, bfSource](n, sourceAddr), func() (func(), func() int) {
			det := NewBruteForce(BruteForceConfig{Service: 22})
			r := newSourceRun(n)
			return func() {
				for i := range n {
					rec, ctx := r.flow(i, int64(r.base+i), 22, packet.FlagACK|packet.FlagPSH)
					r.p.AuthOutcome = packet.AuthFailure
					det.OnPacket(r.p, rec, ctx)
				}
				det.Drain()
				r.base += n
			}, func() int { return len(det.sources) }
		}},
		{"lowslow/idle-groups", bareGrowth[lsGroup, lsGroupState](n, byGroup), func() (func(), func() int) {
			// A revolution of the idle wheel between batches, so each
			// batch's deadlines land in the slot the last one's left.
			const idle, slots, tick = 8e6, 64, 1e6
			det := NewLowSlow(LowSlowConfig{IdleNs: idle, WheelSlots: slots, WheelTickNs: tick})
			r := newSourceRun(n)
			return func() {
				ts := int64(r.base/n) * slots * tick
				for i := range n {
					rec, ctx := r.flow(i, ts, 80, packet.FlagSYN)
					det.OnPacket(r.p, rec, ctx)
					r.p.Flags = packet.FlagACK
					det.OnPacket(r.p, rec, ctx)
				}
				det.Tick(ts + 2*idle)
				det.Drain()
				r.base += n
			}, func() int { return len(det.exhaust) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch, held := c.run()
			if got, bound := testing.AllocsPerRun(1, batch), c.bare+math.Log2(n); got > bound {
				t.Errorf("%d fresh sources allocated %v times, want at most %v (a bare map's growth: %v)", n, got, bound, c.bare)
			}
			if held() != 2*n {
				t.Errorf("the state map holds %d sources after two batches of %d", held(), n)
			}
		})
	}
}

// A source's entry is map memory held for every source a scan ever
// touched, for the detector's life: the walk and the flag, no more.
func TestScanSourceSize(t *testing.T) {
	if n := unsafe.Sizeof(scanSource{}); n > 24 {
		t.Errorf("scanSource is %d bytes, want at most 24", n)
	}
}

// A SYN the pending table has no room for is not tracked: no record
// state, no pin and no entry. A pin without an entry is never released:
// only an expiring entry unpins a silent probe.
func TestPortScanDoesNotPinUntrackedSYN(t *testing.T) {
	hooks := &hookRecorder{}
	det := NewPortScan(PortScanConfig{ResponseTimeoutNs: 1e9})
	det.SetHooks(hooks)
	const syns = maxPendingProbes + 100
	pins := 0
	for i := range syns {
		p, rec := synTo(int64(1000+i), 0xc6336401, packet.Addr(0x0a000000+i), 80)
		if det.OnPacket(p, rec, snic.Ctx{}).Pin {
			pins++
		}
		if i >= maxPendingProbes && rec.State != 0 {
			t.Fatalf("SYN %d past the bound set record state %#x", i, rec.State)
		}
	}
	if len(det.pending) != maxPendingProbes || pins != maxPendingProbes {
		t.Fatalf("%d SYNs: %d pending, %d pinned; want %d each", syns, len(det.pending), pins, maxPendingProbes)
	}
	det.Tick(10e9)
	if pins != len(hooks.unpins) {
		t.Fatalf("%d SYNs pinned, %d unpinned: a pin leaked", pins, len(hooks.unpins))
	}
}

// Incomplete bounds its pending table as PortScan does, and a SYN past
// it is neither pinned nor recorded.
func TestIncompleteBoundsPending(t *testing.T) {
	hooks := &hookRecorder{}
	det := NewIncomplete(1e9, 0, nil)
	det.SetHooks(hooks)
	const syns = maxPendingProbes + 100
	pins := 0
	for i := range syns {
		p, rec := synTo(int64(1000+i), 0xc6000000+packet.Addr(i), 0x0a000001, 80)
		if det.OnPacket(p, rec, snic.Ctx{}).Pin {
			pins++
		}
	}
	if len(det.pending) != maxPendingProbes || pins != maxPendingProbes {
		t.Fatalf("%d spoofed SYNs: %d pending, %d pinned; want %d each", syns, len(det.pending), pins, maxPendingProbes)
	}
	det.Tick(10e9)
	if len(hooks.unpins) != pins {
		t.Fatalf("%d SYNs pinned, %d unpinned", pins, len(hooks.unpins))
	}
}

// bareGrowth is what a bare map[K]V allocates to take n more keys after a
// warm batch of n others, keys in a run's order: the allowance
// TestPerSourceStateDoesNotAllocate gives a detector's state map.
func bareGrowth[K comparable, V any](n int, key func(i int) K) float64 {
	m := map[K]V{}
	base := 0
	return testing.AllocsPerRun(1, func() {
		var v V
		for i := range n {
			m[key(base+i)] = v
		}
		base += n
	})
}
