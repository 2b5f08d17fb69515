package host

// TimingWheel is a hashed timing wheel after Varghese & Lauck (SOSP '87),
// the structure the paper's host NF uses to buffer potentially forged TCP
// RST packets for T = 2 s: the packet is released to its destination when
// the timer expires, or discarded early if a race with genuine data proves
// the RST forged.
//
// Entries carry a payload of the owner's type P inline (an interface{} cost
// a heap object per Schedule) and a caller-chosen 64-bit key for
// cancellation and scanning. Time is virtual nanoseconds.
type TimingWheel[P any] struct {
	slots  []wheelSlot[P]
	tickNs int64
	now    int64 // start of current tick
	cursor int
	size   int
	scans  uint64 // entries examined by Scan (the cost Fig. 8b measures)
	// regressions counts Advance calls that asked for a time before now.
	regressions uint64
	// expired is Advance's result, reused from call to call.
	expired []Expired[P]
}

type wheelSlot[P any] struct {
	entries []wheelEntry[P]
}

type wheelEntry[P any] struct {
	key      uint64
	deadline int64
	rounds   int // full wheel revolutions remaining
	payload  P
	dead     bool
}

// Expired is one released entry.
type Expired[P any] struct {
	Key      uint64
	Deadline int64
	Payload  P
}

// NewTimingWheel builds a wheel of the given slot count and tick length.
// The horizon per revolution is slots*tickNs; longer deadlines ride
// multiple rounds.
func NewTimingWheel[P any](slots int, tickNs int64) *TimingWheel[P] {
	if slots < 2 || tickNs <= 0 {
		panic("host: timing wheel needs >=2 slots and a positive tick")
	}
	return &TimingWheel[P]{slots: make([]wheelSlot[P], slots), tickNs: tickNs}
}

// Len returns the number of live entries.
func (w *TimingWheel[P]) Len() int { return w.size }

// Schedule buffers a payload until deadline (virtual ns). Deadlines in the
// past (or at/before the current tick start) expire on the next Advance.
// Deadlines beyond one revolution ride the rounds counter — they are never
// silently misplaced, and never fire before an Advance that reaches them.
func (w *TimingWheel[P]) Schedule(key uint64, deadline int64, payload P) error {
	if deadline < w.now {
		deadline = w.now
	}
	// A deadline belongs to the tick during which it elapses: the tick
	// covering (w.now + k*tickNs, w.now + (k+1)*tickNs] maps to offset k.
	// The -1 keeps a deadline that lands exactly on a tick boundary in the
	// tick that ENDS there — plain division would place it one slot later
	// and fire it a full tick after it was due.
	ticksAhead := (deadline - w.now - 1) / w.tickNs
	if ticksAhead < 0 {
		ticksAhead = 0 // deadline == w.now: fire on the next tick
	}
	slot := (w.cursor + int(ticksAhead)) % len(w.slots)
	rounds := int(ticksAhead) / len(w.slots)
	w.slots[slot].entries = append(w.slots[slot].entries, wheelEntry[P]{
		key: key, deadline: deadline, rounds: rounds, payload: payload,
	})
	w.size++
	return nil
}

// Cancel removes (lazily) all live entries with the key, returning how
// many were cancelled.
func (w *TimingWheel[P]) Cancel(key uint64) int {
	n := 0
	for si := range w.slots {
		for i := range w.slots[si].entries {
			e := &w.slots[si].entries[i]
			if !e.dead && e.key == key {
				e.dead = true
				w.size--
				n++
			}
		}
	}
	return n
}

// Scan visits every live entry (the wheel scan whose cost the Bloom filter
// avoids) and returns those for which pred is true.
func (w *TimingWheel[P]) Scan(pred func(key uint64, payload P) bool) []Expired[P] {
	var out []Expired[P]
	for si := range w.slots {
		for i := range w.slots[si].entries {
			e := &w.slots[si].entries[i]
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

// ScanCost returns the cumulative entries examined by Scan.
func (w *TimingWheel[P]) ScanCost() uint64 { return w.scans }

// Advance moves virtual time forward to now, returning entries whose
// deadlines expired, in slot order. Time never moves backwards: an Advance
// to before Now() — a stale tick from a second cadence source, a capture
// with out-of-order timestamps — releases nothing, leaves the wheel where
// it is and is counted in Regressions. This is the wheel's whole
// hostile-time contract; its users carry no guard of their own.
// The result is the wheel's own buffer, valid until the next Advance (the
// owner may Schedule while ranging over it).
func (w *TimingWheel[P]) Advance(now int64) []Expired[P] {
	if now < w.now {
		w.regressions++
		return nil
	}
	out := w.expired[:0]
	for now-w.now >= w.tickNs {
		if w.size == 0 {
			// Nothing left to release: cross the remaining ticks in one
			// step, so an Advance into the far future costs the entries it
			// frees, not the distance.
			ticks, n := (now-w.now)/w.tickNs, int64(len(w.slots))
			w.now += ticks * w.tickNs
			w.cursor = int((int64(w.cursor) + ticks%n) % n)
			break
		}
		slot := &w.slots[w.cursor]
		kept := slot.entries[:0]
		for _, e := range slot.entries {
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
		slot.entries = kept
		w.now += w.tickNs
		w.cursor = (w.cursor + 1) % len(w.slots)
	}
	w.expired = out
	return out
}

// Now returns the wheel's current virtual time (start of tick).
func (w *TimingWheel[P]) Now() int64 { return w.now }

// Regressions returns how many Advance calls were refused for asking the
// wheel to move backwards.
func (w *TimingWheel[P]) Regressions() uint64 { return w.regressions }
