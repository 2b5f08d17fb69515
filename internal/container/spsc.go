// Package container holds the single-producer/single-consumer ring the
// cluster runner's ingress lanes are built on (DESIGN.md §13.1).
package container

import "sync/atomic"

// pad is one cache line of padding. head and tail are written by
// different goroutines (consumer and producer respectively); keeping them
// on separate lines stops the two sides' stores from invalidating each
// other's cached copy on every operation.
type pad [64]byte

// SPSC is a bounded single-producer/single-consumer queue over a
// power-of-two ring of T. Exactly one goroutine may call TryPush and
// exactly one may call TryPop; under that contract every operation is a
// slot read/write plus one atomic load and one atomic store — no locks,
// no channel machinery, nothing on the heap after construction.
//
// Each side keeps a local cache of the other side's index (cachedHead on
// the producer line, cachedTail on the consumer line): the atomic load of
// the remote index is only re-done when the cached value says the ring
// looks full (producer) or empty (consumer), so in steady flow the hot
// path touches a single shared word, not two.
//
// Popped slots are zeroed so the ring never retains references the
// consumer has already taken ownership of.
type SPSC[T any] struct {
	_    pad
	head atomic.Uint64 // next slot to pop; advanced by the consumer
	// cachedTail is the consumer's local copy of tail.
	cachedTail uint64
	_          pad
	tail       atomic.Uint64 // next slot to push; advanced by the producer
	// cachedHead is the producer's local copy of head.
	cachedHead uint64
	_          pad
	mask       uint64
	buf        []T
}

// NewSPSC builds a queue with capacity rounded up to the next power of
// two (minimum 1).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{mask: uint64(n - 1), buf: make([]T, n)}
}

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued items. Exact only for the two owning
// goroutines; a momentary view for anyone else.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// TryPush enqueues v, or reports false when the ring is full. Producer
// side only.
func (q *SPSC[T]) TryPush(v T) bool {
	t := q.tail.Load()
	if t-q.cachedHead == uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if t-q.cachedHead == uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

// TryPop dequeues the oldest item, or reports false when the ring is
// empty. Consumer side only.
func (q *SPSC[T]) TryPop() (T, bool) {
	h := q.head.Load()
	if h == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h == q.cachedTail {
			var zero T
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	var zero T
	q.buf[h&q.mask] = zero
	q.head.Store(h + 1)
	return v, true
}

// Empty reports whether the ring currently holds nothing. Safe from
// either side (it loads both indices).
func (q *SPSC[T]) Empty() bool {
	return q.head.Load() == q.tail.Load()
}
