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
//
// A slot's entries live in a chain of fixed-size blocks, contiguous within
// a block and in schedule order along the chain. The blocks are one
// wheel-wide slice, and a block a slot empties goes on a wheel-wide free
// list, so a wheel whose population has stopped growing schedules without
// allocating.
type TimingWheel[P any] struct {
	slots  []wheelSlot
	blocks []wheelBlock[P]
	free   int32 // head of the free-block list, chained through next
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

// noBlock ends a block chain.
const noBlock = -1

// wheelBlockLen is the entries a block holds.
const wheelBlockLen = 32

// wheelSlot is the chain of blocks holding one slot's entries: every block
// but the tail is full.
type wheelSlot struct {
	head, tail int32
}

// wheelBlock holds n entries of one slot; next chains the slot's blocks,
// or the free list.
type wheelBlock[P any] struct {
	next    int32
	n       int32
	entries [wheelBlockLen]wheelEntry[P]
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
	w := &TimingWheel[P]{slots: make([]wheelSlot, slots), free: noBlock, tickNs: tickNs}
	for i := range w.slots {
		w.slots[i] = wheelSlot{noBlock, noBlock}
	}
	return w
}

// Len returns the number of live entries.
func (w *TimingWheel[P]) Len() int { return w.size }

// newBlock returns an empty block, from the free list if it has one.
func (w *TimingWheel[P]) newBlock() int32 {
	b := w.free
	if b == noBlock {
		b = int32(len(w.blocks))
		w.blocks = append(w.blocks, wheelBlock[P]{})
	} else {
		w.free = w.blocks[b].next
	}
	w.blocks[b].next, w.blocks[b].n = noBlock, 0
	return b
}

// freeChain puts block b and every block after it on the free list.
func (w *TimingWheel[P]) freeChain(b int32) {
	for b != noBlock {
		next := w.blocks[b].next
		w.blocks[b].next, w.free = w.free, b
		b = next
	}
}

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
	s := &w.slots[(w.cursor+int(ticksAhead))%len(w.slots)]
	if s.tail == noBlock || w.blocks[s.tail].n == wheelBlockLen {
		b := w.newBlock()
		if s.tail == noBlock {
			s.head = b
		} else {
			w.blocks[s.tail].next = b
		}
		s.tail = b
	}
	blk := &w.blocks[s.tail]
	blk.entries[blk.n] = wheelEntry[P]{
		key: key, deadline: deadline, rounds: int(ticksAhead) / len(w.slots), payload: payload,
	}
	blk.n++
	w.size++
	return nil
}

// Cancel removes (lazily) all live entries with the key, returning how
// many were cancelled.
func (w *TimingWheel[P]) Cancel(key uint64) int {
	n := 0
	for si := range w.slots {
		for b := w.slots[si].head; b != noBlock; b = w.blocks[b].next {
			blk := &w.blocks[b]
			for i := range blk.entries[:blk.n] {
				e := &blk.entries[i]
				if !e.dead && e.key == key {
					e.dead = true
					w.size--
					n++
				}
			}
		}
	}
	return n
}

// Scan visits every live entry (the wheel scan whose cost the Bloom filter
// avoids) and returns how many carry the key.
func (w *TimingWheel[P]) Scan(key uint64) int {
	n := 0
	for si := range w.slots {
		for b := w.slots[si].head; b != noBlock; b = w.blocks[b].next {
			blk := &w.blocks[b]
			for i := range blk.entries[:blk.n] {
				e := &blk.entries[i]
				if e.dead {
					continue
				}
				w.scans++
				if e.key == key {
					n++
				}
			}
		}
	}
	return n
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
		out = w.sweep(&w.slots[w.cursor], out)
		w.now += w.tickNs
		w.cursor = (w.cursor + 1) % len(w.slots)
	}
	w.expired = out
	return out
}

// sweep releases slot s's due entries into out and compacts the ones that
// ride another round to the front of its chain, in order, freeing the
// blocks that leaves empty.
func (w *TimingWheel[P]) sweep(s *wheelSlot, out []Expired[P]) []Expired[P] {
	if s.head == noBlock {
		return out
	}
	kb, kn := s.head, int32(0) // where the next kept entry goes
	for b := s.head; b != noBlock; b = w.blocks[b].next {
		blk := &w.blocks[b]
		for i := range blk.entries[:blk.n] {
			e := &blk.entries[i]
			switch {
			case e.dead:
			case e.rounds > 0:
				e.rounds--
				if kn == wheelBlockLen {
					kb, kn = w.blocks[kb].next, 0
				}
				w.blocks[kb].entries[kn] = *e
				kn++
			default:
				out = append(out, Expired[P]{Key: e.key, Deadline: e.deadline, Payload: e.payload})
				w.size--
			}
		}
	}
	if kn == 0 {
		// Only the head can hold no kept entry: the whole slot is free.
		w.freeChain(s.head)
		s.head, s.tail = noBlock, noBlock
		return out
	}
	w.freeChain(w.blocks[kb].next)
	w.blocks[kb].next, w.blocks[kb].n = noBlock, kn
	s.tail = kb
	return out
}

// Now returns the wheel's current virtual time (start of tick).
func (w *TimingWheel[P]) Now() int64 { return w.now }

// Regressions returns how many Advance calls were refused for asking the
// wheel to move backwards.
func (w *TimingWheel[P]) Regressions() uint64 { return w.regressions }
