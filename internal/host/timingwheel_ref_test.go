package host

import (
	"math"
	"slices"
	"testing"

	"smartwatch/internal/stats"
)

// sliceWheel is the slice-per-slot timing wheel the block wheel replaced,
// kept as its reference: each slot one slice, grown by append and
// compacted in place by Advance, and Scan copying its matches out.
type sliceWheel[P any] struct {
	slots       [][]wheelEntry[P]
	tickNs      int64
	now         int64
	cursor      int
	size        int
	scans       uint64
	regressions uint64
}

func newSliceWheel[P any](slots int, tickNs int64) *sliceWheel[P] {
	return &sliceWheel[P]{slots: make([][]wheelEntry[P], slots), tickNs: tickNs}
}

func (w *sliceWheel[P]) Schedule(key uint64, deadline int64, payload P) {
	if deadline < w.now {
		deadline = w.now
	}
	ticksAhead := (deadline - w.now - 1) / w.tickNs
	if ticksAhead < 0 {
		ticksAhead = 0
	}
	slot := (w.cursor + int(ticksAhead)) % len(w.slots)
	rounds := int(ticksAhead) / len(w.slots)
	w.slots[slot] = append(w.slots[slot], wheelEntry[P]{key: key, deadline: deadline, rounds: rounds, payload: payload})
	w.size++
}

func (w *sliceWheel[P]) Cancel(key uint64) int {
	n := 0
	for si := range w.slots {
		for i := range w.slots[si] {
			e := &w.slots[si][i]
			if !e.dead && e.key == key {
				e.dead = true
				w.size--
				n++
			}
		}
	}
	return n
}

func (w *sliceWheel[P]) Scan(pred func(key uint64, payload P) bool) []Expired[P] {
	var out []Expired[P]
	for si := range w.slots {
		for i := range w.slots[si] {
			e := &w.slots[si][i]
			if e.dead {
				continue
			}
			w.scans++
			if pred(e.key, e.payload) {
				out = append(out, Expired[P]{Key: e.key, Deadline: e.deadline, Payload: e.payload})
			}
		}
	}
	return out
}

func (w *sliceWheel[P]) Advance(now int64) []Expired[P] {
	if now < w.now {
		w.regressions++
		return nil
	}
	var out []Expired[P]
	for now-w.now >= w.tickNs {
		if w.size == 0 {
			ticks, n := (now-w.now)/w.tickNs, int64(len(w.slots))
			w.now += ticks * w.tickNs
			w.cursor = int((int64(w.cursor) + ticks%n) % n)
			break
		}
		kept := w.slots[w.cursor][:0]
		for _, e := range w.slots[w.cursor] {
			switch {
			case e.dead:
			case e.rounds > 0:
				e.rounds--
				kept = append(kept, e)
			default:
				out = append(out, Expired[P]{Key: e.key, Deadline: e.deadline, Payload: e.payload})
				w.size--
			}
		}
		w.slots[w.cursor] = kept
		w.now += w.tickNs
		w.cursor = (w.cursor + 1) % len(w.slots)
	}
	return out
}

// TestTimingWheelMatchesSliceWheel drives random Schedule / Cancel / Scan
// / Advance sequences through the block wheel and sliceWheel and diffs
// every result, its order, Len, Now, ScanCost and Regressions after every
// operation. Few slots and few keys put hundreds of entries in a slot
// (many blocks to a chain), make keys collide, and send deadlines many
// rounds out, onto tick boundaries and into the past; Advance moves by
// less than a tick, onto a boundary, backwards and far into the future.
func TestTimingWheelMatchesSliceWheel(t *testing.T) {
	longest := 0 // blocks in the longest chain met
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRand(seed)
		slots, tick := 2+rng.IntN(7), int64(10+rng.IntN(90))
		w, ref := NewTimingWheel[int](slots, tick), newSliceWheel[int](slots, tick)
		horizon := int64(slots) * tick
		keys := uint64(4 + rng.IntN(60))
		for step := 0; step < 3000; step++ {
			now := ref.now
			switch op := rng.IntN(100); {
			case op < 55:
				var d int64
				switch rng.IntN(4) {
				case 0: // on a tick boundary, up to several rounds out
					d = now + int64(rng.IntN(6*slots))*tick
				case 1: // in the past
					d = now - rng.Int64N(3*horizon)
				default:
					d = now + rng.Int64N(8*horizon)
				}
				burst := 1
				if rng.IntN(20) == 0 { // one deadline for a burst: a chain of blocks in one slot
					burst = 20 + rng.IntN(100)
				}
				for range burst {
					key := rng.Uint64() % keys
					w.Schedule(key, d, step)
					ref.Schedule(key, d, step)
				}
			case op < 65:
				key := rng.Uint64() % keys
				if got, want := w.Cancel(key), ref.Cancel(key); got != want {
					t.Fatalf("seed %d step %d: Cancel(%d) = %d, reference %d", seed, step, key, got, want)
				}
			case op < 72:
				key := rng.Uint64() % keys
				if got, want := w.Scan(key), ref.Scan(func(k uint64, _ int) bool { return k == key }); got != len(want) {
					t.Fatalf("seed %d step %d: Scan(%d) = %d, reference matched %v", seed, step, key, got, want)
				}
			default:
				var to int64
				switch rng.IntN(10) {
				case 0: // backwards
					to = now - 1 - rng.Int64N(horizon)
				case 1: // far future: walks every round out, then jumps
					to = now + int64(10+rng.IntN(100))*horizon + rng.Int64N(tick)
				case 2: // onto a tick boundary
					to = now + int64(rng.IntN(3))*tick
				default:
					to = now + rng.Int64N(2*tick)
				}
				got, want := w.Advance(to), ref.Advance(to)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Advance(%d) = %v, reference %v", seed, step, to, got, want)
				}
			}
			for _, s := range w.slots {
				n := 0
				for b := s.head; b != noBlock; b = w.blocks[b].next {
					n++
				}
				longest = max(longest, n)
			}
			if w.Len() != ref.size || w.Now() != ref.now || w.ScanCost() != ref.scans || w.Regressions() != ref.regressions {
				t.Fatalf("seed %d step %d: Len %d Now %d ScanCost %d Regressions %d, reference %d %d %d %d",
					seed, step, w.Len(), w.Now(), w.ScanCost(), w.Regressions(), ref.size, ref.now, ref.scans, ref.regressions)
			}
		}
		// The edge of time: everything left is released, in the same order.
		if got, want := w.Advance(math.MaxInt64), ref.Advance(math.MaxInt64); !slices.Equal(got, want) || w.Len() != 0 {
			t.Fatalf("seed %d: Advance(MaxInt64) = %v (%d left), reference %v", seed, got, w.Len(), want)
		}
	}
	if longest < 4 {
		t.Errorf("longest slot chain met was %d blocks, want at least 4", longest)
	}
}

// revolver returns one revolution of a wheel at steady state: every tick
// schedules a few entries half a revolution out and one two rounds out,
// cancels and scans one key, and advances a tick; once a revolution a
// burst lands in a slot one further along than the revolution before's.
// The population is the same from revolution to revolution; which slot
// holds the burst is not.
func revolver(w *TimingWheel[int], slots int, tick int64) func() {
	rev := 0
	return func() {
		for s := range slots {
			now := w.Now()
			n := 3
			if s == rev%slots {
				n = 200
			}
			for i := range n {
				w.Schedule(uint64(s*1000+i), now+int64(slots/2)*tick, i)
			}
			w.Schedule(uint64(s), now+int64(2*slots)*tick, s)
			w.Cancel(uint64(s*1000 + 1))
			w.Scan(uint64(s * 1000))
			w.Advance(now + tick)
		}
		rev++
	}
}

// The wheel's memory is steady-state: once its population has stopped
// growing, a revolution allocates nothing, even as the entries move from
// slot to slot. Its blocks are wheel-wide, so a slot's burst reuses the
// blocks another slot freed.
func TestTimingWheelRevolutionDoesNotAllocate(t *testing.T) {
	const slots, tick = 64, int64(1e6)
	w := NewTimingWheel[int](slots, tick)
	revolution := revolver(w, slots, tick)
	for range 3 {
		revolution()
	}
	if n := testing.AllocsPerRun(5, revolution); n != 0 {
		t.Errorf("one revolution after warm-up: %.1f allocations, want 0", n)
	}
	if w.Len() == 0 || w.ScanCost() == 0 {
		t.Fatalf("revolution left %d entries after %d scanned: not exercised", w.Len(), w.ScanCost())
	}
}
