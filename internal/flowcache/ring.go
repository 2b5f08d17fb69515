package flowcache

import "sync"

// Ring is one eviction ring buffer. The paper dedicates 8 rings of 64K
// entries so that 80 PMEs do not contend on a single queue; the host
// snapshotter drains them periodically. Push is called by packet
// processing (producers across rows); Drain by the host thread.
//
// The capacity is fixed at construction, the storage is not: it is
// allocated by the first Push and doubles, up to the capacity, as the
// ring fills. A cache's eight 64 Ki-record rings are 32 MB, a ring holds
// only what is evicted between two drains, and a make of the whole
// capacity out of reused heap zeroes all of it (DESIGN.md §17.2).
type Ring struct {
	mu       sync.Mutex
	buf      []Record
	capacity int
	head     int // next pop
	size     int
	drops    uint64
}

// ringMinLen is the storage the first Push allocates (16 KB).
const ringMinLen = 256

// NewRing returns a ring with the given capacity.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("flowcache: ring capacity must be positive")
	}
	return &Ring{capacity: capacity}
}

// Push appends a record; it reports false (and counts a drop) when full.
func (r *Ring) Push(rec Record) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size == r.capacity {
		r.drops++
		return false
	}
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)%len(r.buf)] = rec
	r.size++
	return true
}

// grow doubles the storage, up to the capacity, and lays the records out
// from index 0 in pop order.
func (r *Ring) grow() {
	buf := make([]Record, min(max(2*len(r.buf), ringMinLen), r.capacity))
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// Drain pops up to max records into out and returns the filled slice.
// max <= 0 drains everything available.
func (r *Ring) Drain(out []Record, max int) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.size
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[r.head])
		r.head = (r.head + 1) % len(r.buf)
		r.size--
	}
	return out
}

// Len returns the buffered record count.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Drops returns how many records were lost to overflow.
func (r *Ring) Drops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}
