package flowcache

// Concurrency tests: the per-row latch path is designed for the sNIC's
// parallel micro-engines but the DES drives it single-threaded, so these
// tests are what actually exercises Process under real contention. Run
// them under the race detector (`make race` / CI) to validate the latch
// protocol; even without -race the conservation checks below catch lost
// updates.

import (
	"sync"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// contendedConfig is tiny on purpose: 16 rows so goroutines collide on row
// latches constantly, and small rings so eviction overflow paths run too.
func contendedConfig() Config {
	cfg := DefaultConfig(4)
	cfg.Rings, cfg.RingEntries = 2, 1024
	return cfg
}

func TestConcurrentProcessConservation(t *testing.T) {
	const (
		goroutines = 8
		perG       = 20_000
		flows      = 3_000
	)
	c := New(contendedConfig())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRand(seed + 1)
			z := stats.NewZipf(rng, flows, 1.1)
			for i := 0; i < perG; i++ {
				fl := z.Sample()
				p := packet.Packet{
					Ts: int64(i),
					Tuple: packet.FiveTuple{
						SrcIP: packet.Addr(fl + 1), DstIP: packet.Addr(fl*7 + 13),
						SrcPort: uint16(fl), DstPort: 443, Proto: packet.ProtoTCP,
					},
					Size: 64,
				}
				c.Process(&p)
			}
		}(uint64(g))
	}
	wg.Wait()

	st := c.Stats()
	total := uint64(goroutines * perG)
	if got := st.Processed() + st.HostPunts; got != total {
		t.Errorf("outcome counters conserve %d packets, want %d", got, total)
	}
	// Every record leaves a row only through an eviction push, so inserts
	// must equal live occupancy plus cumulative evictions.
	if live, want := uint64(c.Occupancy()), st.Inserts-st.Evictions; live != want {
		t.Errorf("occupancy %d != inserts %d - evictions %d", live, st.Inserts, st.Evictions)
	}
	// Per-flow packet counts: total packets across live records + records
	// drained to rings + punts == offered packets requires draining rings;
	// instead check the cheap invariant that the cache is not over capacity.
	if c.Occupancy() > c.Config().Entries() {
		t.Errorf("occupancy %d exceeds capacity %d", c.Occupancy(), c.Config().Entries())
	}
}

// TestConcurrentProcessWithModeSwitches drives Process from many
// goroutines while another flips General<->Lite, exercising the dirty-row
// lazy cleanup (Alg. 3) under real contention.
func TestConcurrentProcessWithModeSwitches(t *testing.T) {
	const (
		goroutines = 6
		perG       = 15_000
	)
	c := New(contendedConfig())
	var wg sync.WaitGroup
	stopFlip := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		mode := Lite
		for {
			select {
			case <-stopFlip:
				return
			default:
			}
			c.SetMode(mode)
			if mode == Lite {
				mode = General
			} else {
				mode = Lite
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRand(seed + 101)
			for i := 0; i < perG; i++ {
				fl := rng.IntN(2_000)
				p := packet.Packet{
					Ts: int64(i),
					Tuple: packet.FiveTuple{
						SrcIP: packet.Addr(fl + 1), DstIP: packet.Addr(fl + 5),
						SrcPort: uint16(fl), DstPort: 22, Proto: packet.ProtoTCP,
					},
					Size: 64,
				}
				rec, res := c.Process(&p)
				if res.Outcome != HostPunt && rec == nil {
					t.Error("non-punt outcome returned nil record")
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(stopFlip)
	flipper.Wait()

	st := c.Stats()
	if got, want := st.Processed()+st.HostPunts, uint64(goroutines*perG); got != want {
		t.Errorf("conservation under mode flips: %d, want %d", got, want)
	}
}

// TestConcurrentReadersAndWriters mixes Process with Lookup, UpdateState,
// Pin/Unpin, Evict, Snapshot and Stats — the full external API — from
// separate goroutines.
func TestConcurrentReadersAndWriters(t *testing.T) {
	c := New(contendedConfig())
	keyOf := func(fl int) packet.FlowKey {
		return packet.FiveTuple{
			SrcIP: packet.Addr(fl + 1), DstIP: packet.Addr(fl + 5),
			SrcPort: uint16(fl), DstPort: 80, Proto: packet.ProtoTCP,
		}.Canonical()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRand(seed + 7)
			for i := 0; i < 10_000; i++ {
				fl := rng.IntN(500)
				p := packet.Packet{Ts: int64(i), Tuple: keyOf(fl).Tuple(), Size: 64}
				c.Process(&p)
			}
		}(uint64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := stats.NewRand(999)
		for i := 0; i < 10_000; i++ {
			fl := rng.IntN(500)
			switch i % 5 {
			case 0:
				c.Lookup(keyOf(fl))
			case 1:
				c.UpdateState(keyOf(fl), func(r *Record) { r.State++ })
			case 2:
				c.Pin(keyOf(fl))
				c.Unpin(keyOf(fl))
			case 3:
				c.Evict(keyOf(fl))
			case 4:
				n := 0
				c.Snapshot(func(Record) bool { n++; return n < 64 })
				c.Stats()
			}
		}
	}()
	wg.Wait()
	if c.Stats().Processed() == 0 {
		t.Fatal("nothing processed")
	}
}

// TestRingConcurrentPushDrainDrops hammers one Ring from parallel
// producers while a drainer and a stats reader run concurrently — the
// configuration the paper's 80 PMEs put the eviction rings in. The
// conservation check catches lost updates even without -race: every
// pushed record is eventually drained, still buffered, or counted as a
// drop, never silently lost or double-counted.
func TestRingConcurrentPushDrainDrops(t *testing.T) {
	const (
		producers = 6
		perG      = 30_000
	)
	r := NewRing(512)
	var prodWg sync.WaitGroup
	var pushed, rejected [producers]uint64
	for g := 0; g < producers; g++ {
		prodWg.Add(1)
		go func(g int) {
			defer prodWg.Done()
			for i := 0; i < perG; i++ {
				if r.Push(Record{Pkts: uint64(g*perG + i)}) {
					pushed[g]++
				} else {
					rejected[g]++
				}
			}
		}(g)
	}

	done := make(chan struct{})
	var auxWg sync.WaitGroup
	var drained uint64
	auxWg.Add(1)
	go func() { // host-side drainer
		defer auxWg.Done()
		buf := make([]Record, 0, 256)
		for {
			buf = r.Drain(buf[:0], 256)
			drained += uint64(len(buf))
			if len(buf) == 0 {
				select {
				case <-done:
					return
				default:
				}
			}
		}
	}()
	auxWg.Add(1)
	go func() { // concurrent stats reader (metrics collector)
		defer auxWg.Done()
		for {
			r.Drops()
			r.Len()
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	prodWg.Wait()
	close(done)
	auxWg.Wait()
	// The drainer may have exited between a producer's last push and its
	// own final empty Drain; collect any tail left in the ring.
	tail := uint64(len(r.Drain(nil, 0)))

	var accepted, refused uint64
	for g := 0; g < producers; g++ {
		accepted += pushed[g]
		refused += rejected[g]
	}
	if accepted+refused != producers*perG {
		t.Fatalf("accounting lost pushes: %d+%d != %d", accepted, refused, producers*perG)
	}
	if refused != r.Drops() {
		t.Errorf("rejected pushes %d != ring drops %d", refused, r.Drops())
	}
	if got := drained + tail; got != accepted {
		t.Errorf("drained %d + tail %d != accepted %d", drained, tail, accepted)
	}
}

// TestHeaderReadersUnlatched: Occupancy and OccupancyStats load the row
// headers' words and pin masks without the latch while Process, Pin, Unpin,
// Evict and mode flips rewrite them under it — race-free because both are
// atomics — and, once the writers are done, report exactly what a latched
// walk of the table counts.
func TestHeaderReadersUnlatched(t *testing.T) {
	cfg := contendedConfig()
	cfg.PinStarveEvict = true
	c := New(cfg)
	c.EnableFeedback()
	keyOf := func(fl int) packet.FlowKey {
		return packet.FiveTuple{SrcIP: packet.Addr(fl + 1), DstIP: packet.Addr(fl + 5), SrcPort: uint16(fl), DstPort: 80, Proto: packet.ProtoTCP}.Canonical()
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := stats.NewRand(seed + 31)
			for i := 0; i < 20_000; i++ {
				k := keyOf(rng.IntN(600))
				switch rng.IntN(8) {
				case 0:
					c.Pin(k)
				case 1:
					c.Unpin(k)
				case 2:
					c.Evict(k)
				case 3:
					if i%500 == 0 {
						c.SetMode(Mode(rng.IntN(2)))
					}
				default:
					p := packet.Packet{Ts: int64(i), Tuple: k.Tuple(), Size: 64}
					c.Process(&p)
				}
			}
		}(uint64(g))
	}
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			occ, pinned := c.OccupancyStats()
			if n := c.Config().Entries(); occ > n || pinned > n || c.Occupancy() > n {
				t.Errorf("OccupancyStats %d / %d on a %d-bucket table", occ, pinned, n)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()

	var live, pins int
	for ri := range c.rows {
		var rw row
		c.acquire(uint64(ri), &rw)
		for i := range rw.buckets {
			if rw.holds(i) {
				live++
				if rw.pinned(i) {
					pins++
				}
			}
		}
		rw.release()
	}
	if occ, pinned := c.OccupancyStats(); occ != live || pinned != pins || c.Occupancy() != live || c.LivePinned() != int64(pins) || pins == 0 {
		t.Errorf("OccupancyStats %d / %d, Occupancy %d, LivePinned %d; a latched walk counts %d records, %d pinned (want some)",
			occ, pinned, c.Occupancy(), c.LivePinned(), live, pins)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
