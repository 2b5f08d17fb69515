package flowcache

import "sync/atomic"

// feedback is the cache's live pin accounting: the pinned population and
// the budget that caps it. The counters are maintained on the direct path —
// never deferred through a BatchAcc — so their value at any packet boundary
// is identical across batch sizes and across the sequential/parallel shard
// drives.
//
// All updates are gated on track (a plain bool written once, before
// processing starts, by EnableFeedback) so the default hot path pays a
// single predicted-not-taken branch per pinned eviction and nothing per
// hit.
type feedback struct {
	track bool
	// pinned is the live pinned-record count, maintained on every pin
	// transition under the row latch.
	pinned atomic.Int64
	// pinBudget caps the live pinned population when > 0; Pin refuses
	// (and counts pinRefused) beyond it. 0 (the default) disables
	// enforcement.
	pinBudget atomic.Int64
	// pinRefused counts pins denied by the budget.
	pinRefused atomic.Uint64
}

// reservePin atomically claims one slot of the pin budget: it increments
// pinned only when the increment provably keeps the population within
// pinBudget (0 = unlimited). The CAS loop makes the check-and-increment a
// single step, so concurrent pins on different rows can neither overshoot
// the budget (two loads both seeing budget-1) nor leak counts through a
// compensating decrement. A refusal is counted and leaves pinned
// untouched.
func (f *feedback) reservePin() bool {
	for {
		cur := f.pinned.Load()
		if b := f.pinBudget.Load(); b > 0 && cur >= b {
			f.pinRefused.Add(1)
			return false
		}
		if f.pinned.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// EnableFeedback turns the live pin counters on, for harnesses that want a
// pin budget (SetPinBudget). It must be called before the first Process:
// the gate is an unsynchronised bool, and counters enabled mid-stream would
// start from a stale pinned population.
func (c *Cache) EnableFeedback() { c.fb.track = true }

// LivePinned returns the live pinned-record count (feedback-enabled
// caches only).
func (c *Cache) LivePinned() int64 { return c.fb.pinned.Load() }

// SetPinBudget caps the live pinned population: once LivePinned reaches
// n, Pin refuses new pins until records unpin or evict. n <= 0 removes
// the cap. Effective only on feedback-enabled caches (the counter that
// enforces it is dead otherwise).
func (c *Cache) SetPinBudget(n int64) {
	if n < 0 {
		n = 0
	}
	c.fb.pinBudget.Store(n)
}

// PinRefused counts pins denied by the budget.
func (c *Cache) PinRefused() uint64 { return c.fb.pinRefused.Load() }
