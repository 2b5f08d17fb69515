package flowcache

import (
	"sync"
	"testing"

	"smartwatch/internal/packet"
)

// pinKey builds a distinct flow and inserts it, returning the key.
func pinKey(c *Cache, i int, ts int64) packet.FlowKey {
	p := packet.Packet{
		Ts: ts,
		Tuple: packet.FiveTuple{
			SrcIP: packet.Addr(i + 1), DstIP: packet.Addr(i*13 + 7),
			SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP,
		},
		Size: 64,
	}
	c.Process(&p)
	return p.Key()
}

// The pin budget must be exact at the boundary: with budget B and far
// more pin attempts than B, exactly B pins are admitted, the rest are
// refused, and the live counter never exceeds B — sequentially first.
func TestPinBudgetExactAtBoundary(t *testing.T) {
	c := New(contendedConfig())
	c.enableFeedback()
	const budget = 16
	c.SetPinBudget(budget)

	keys := make([]packet.FlowKey, 0, 64)
	for i := 0; i < 64; i++ {
		keys = append(keys, pinKey(c, i, int64(i)))
	}
	admitted := 0
	for _, k := range keys {
		if c.Pin(k) {
			admitted++
		}
	}
	if admitted != budget {
		t.Fatalf("admitted %d pins, want exactly %d", admitted, budget)
	}
	if got := c.LivePinned(); got != budget {
		t.Fatalf("LivePinned = %d, want %d", got, budget)
	}
	if got := c.PinRefused(); got != 64-budget {
		t.Fatalf("PinRefused = %d, want %d", got, 64-budget)
	}
	// Re-pinning an already pinned flow succeeds without consuming budget.
	for i := 0; i < len(keys); i++ {
		if c.Pin(keys[i]) && c.LivePinned() > budget {
			t.Fatalf("re-pin overshot the budget: %d", c.LivePinned())
		}
	}
	// Unpinning frees budget one-for-one.
	c.Unpin(keys[0])
	if got := c.LivePinned(); got != budget-1 {
		t.Fatalf("LivePinned after unpin = %d, want %d", got, budget-1)
	}
	refusedBefore := c.PinRefused()
	if !c.Pin(keys[40]) {
		t.Fatalf("pin refused with budget headroom (refused=%d)", c.PinRefused()-refusedBefore)
	}
	if got := c.LivePinned(); got != budget {
		t.Fatalf("LivePinned = %d, want %d", got, budget)
	}
}

// Race test hammering Pin/Unpin/Evict at the budget boundary (ISSUE 10
// satellite): the old check-then-act admission could let concurrent pins
// on different rows both observe budget-1 live pins and overshoot, or
// refuse and still count. The CAS reservation must hold the invariant
// LivePinned <= budget at every instant and leave the counter exactly
// consistent with the surviving records at the end.
func TestPinBudgetBoundaryRace(t *testing.T) {
	const (
		budget     = 8
		goroutines = 8
		iters      = 4_000
		flows      = 64
	)
	c := New(contendedConfig())
	c.enableFeedback()
	c.SetPinBudget(budget)

	keys := make([]packet.FlowKey, flows)
	for i := range keys {
		keys[i] = pinKey(c, i, int64(i))
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := keys[(g*31+i*7)%flows]
				switch (g + i) % 4 {
				case 0, 1:
					c.Pin(k)
					if live := c.LivePinned(); live > budget {
						t.Errorf("live pinned %d exceeds budget %d", live, budget)
						return
					}
				case 2:
					c.Unpin(k)
				case 3:
					if c.Evict(k) {
						// Re-insert so the flow can be pinned again.
						p := packet.Packet{
							Ts:    int64(i),
							Tuple: packet.FiveTuple{SrcIP: packet.Addr((g*31+i*7)%flows + 1), DstIP: packet.Addr(((g*31+i*7)%flows)*13 + 7), SrcPort: uint16((g*31 + i*7) % flows), DstPort: 443, Proto: packet.ProtoTCP},
							Size:  64,
						}
						c.Process(&p)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The live counter must equal a ground-truth walk of the table.
	walked := int64(0)
	c.walk(func(_ Record, pinned bool, _ uint8) {
		if pinned {
			walked++
		}
	})
	if got := c.LivePinned(); got != walked {
		t.Fatalf("LivePinned = %d but table walk found %d pinned records", got, walked)
	}
	if walked > budget {
		t.Fatalf("%d pinned records exceed budget %d", walked, budget)
	}
}

// The pin is in the row header, not the record, so a detector's
// UpdateState fn cannot flip it behind the budget's back: whatever fn
// writes, the pin and the live counter stay where Pin / Unpin left them.
func TestUpdateStatePinUntouched(t *testing.T) {
	c := New(contendedConfig())
	c.enableFeedback()
	k := pinKey(c, 1, 1)
	for _, want := range []bool{false, true, false} {
		if want {
			c.Pin(k)
		} else {
			c.Unpin(k)
		}
		if !c.UpdateState(k, func(r *Record) { *r = Record{Key: r.Key, State: ^uint64(0), StateTs: -1} }) {
			t.Fatal("UpdateState missed")
		}
		rec, pinned, ok := c.Lookup(k)
		if !ok || pinned != want || rec.State != ^uint64(0) {
			t.Fatalf("after UpdateState: pinned %v (want %v), record %+v", pinned, want, rec)
		}
		if got, w := c.LivePinned(), map[bool]int64{true: 1}[want]; got != w {
			t.Fatalf("LivePinned = %d, want %d", got, w)
		}
	}
}
