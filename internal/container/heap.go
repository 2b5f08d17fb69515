// Package container holds the small specialised data structures shared by
// the simulator's hot paths. Its flat 4-ary min-heap serves the switch
// whitelist top-k selection (internal/core); it was also the sNIC thread
// scheduler until a sorted ring replaced it there (DESIGN.md §17), and
// remains the oracle internal/snic's tests hold the ring to.
package container

import "cmp"

// Item is one heap entry: ordered by Pri, then Tie, both ascending. Val
// carries an arbitrary payload that does not participate in ordering.
//
// Both key fields are constrained to cmp.Ordered so the comparison below
// compiles to inlined machine compares per instantiation — no
// sort.Interface boxing and no dynamic dispatch (see DESIGN.md §7).
type Item[P cmp.Ordered, T cmp.Ordered, V any] struct {
	Pri P
	Tie T
	Val V
}

// Less orders items by (Pri, Tie) ascending. Ties on Pri break toward the
// smaller Tie, making heap extraction fully deterministic whenever Tie
// values are distinct.
func (a Item[P, T, V]) Less(b Item[P, T, V]) bool {
	if a.Pri != b.Pri {
		return a.Pri < b.Pri
	}
	return a.Tie < b.Tie
}

// Heap is a flat 4-ary min-heap of Items; the zero value is an empty heap.
// A 4-ary layout halves the tree depth of a binary heap (hot loops mostly
// reorder just the root) at the cost of three extra comparisons per level
// — a clear win when every comparison is an inlined scalar compare.
//
// Heap is not safe for concurrent use.
type Heap[P cmp.Ordered, T cmp.Ordered, V any] struct {
	items []Item[P, T, V]
}

const arity = 4

// Len returns the number of items held.
func (h *Heap[P, T, V]) Len() int { return len(h.items) }

// Grow reserves capacity for n items without changing the contents.
func (h *Heap[P, T, V]) Grow(n int) {
	if cap(h.items)-len(h.items) < n {
		next := make([]Item[P, T, V], len(h.items), len(h.items)+n)
		copy(next, h.items)
		h.items = next
	}
}

// Init adopts items as the heap's backing store and heapifies it in place
// (O(n)). The caller must not use the slice afterwards.
func (h *Heap[P, T, V]) Init(items []Item[P, T, V]) {
	h.items = items
	for i := (len(items) - 2) / arity; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Push adds an item.
func (h *Heap[P, T, V]) Push(it Item[P, T, V]) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !h.items[i].Less(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// PopMin removes and returns the smallest item. It panics on an empty heap.
func (h *Heap[P, T, V]) PopMin() Item[P, T, V] {
	out := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return out
}

// Root returns a pointer to the smallest item for in-place mutation; the
// caller must restore ordering with FixRoot afterwards. The pointer is
// invalidated by Push/PopMin/Init. It panics on an empty heap.
func (h *Heap[P, T, V]) Root() *Item[P, T, V] { return &h.items[0] }

// FixRoot restores the heap property after the root item was mutated in
// place (peek root, replace or grow it, re-sink), which avoids a Pop+Push
// pair.
func (h *Heap[P, T, V]) FixRoot() { h.siftDown(0) }

// Items exposes the backing slice in heap (not sorted) order, for bulk
// consumers that impose their own final ordering.
func (h *Heap[P, T, V]) Items() []Item[P, T, V] { return h.items }

// siftDown restores the heap property below i after h.items[i] grew.
func (h *Heap[P, T, V]) siftDown(i int) {
	n := len(h.items)
	for {
		first := arity*i + 1
		if first >= n {
			return
		}
		best := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.items[c].Less(h.items[best]) {
				best = c
			}
		}
		if !h.items[best].Less(h.items[i]) {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}
