package host

import (
	"math"
	"testing"
)

// Wraparound / boundary audit for the hashed timing wheel (ISSUE 10
// satellite): deadlines beyond one revolution must ride the rounds
// counter (no silent misplacement), far-past deadlines must fire on the
// next Advance (no immediate-fire, no loss), and a deadline landing
// exactly on a tick boundary must fire at that boundary — not a full
// tick late, which is what the pre-fix offset arithmetic did.
func TestTimingWheelWraparoundTable(t *testing.T) {
	cases := []struct {
		name       string
		slots      int
		tick       int64
		preAdvance int64 // move the cursor mid-rotation before scheduling
		deadline   int64
		notFiredBy int64 // Advance to here must NOT release the entry
		firedBy    int64 // Advance to here MUST release it
	}{
		{name: "within-first-revolution", slots: 8, tick: 100,
			deadline: 350, notFiredBy: 300, firedBy: 400},
		{name: "tick-boundary-fires-on-time", slots: 8, tick: 100,
			deadline: 300, notFiredBy: 200, firedBy: 300},
		{name: "exactly-one-revolution", slots: 4, tick: 100,
			deadline: 400, notFiredBy: 300, firedBy: 400},
		{name: "multi-revolution", slots: 4, tick: 100,
			deadline: 1150, notFiredBy: 1100, firedBy: 1200},
		{name: "many-revolutions", slots: 2, tick: 50,
			deadline: 1000, notFiredBy: 950, firedBy: 1000},
		{name: "cursor-mid-rotation", slots: 8, tick: 100,
			preAdvance: 500, deadline: 1250, notFiredBy: 1200, firedBy: 1300},
		{name: "cursor-mid-rotation-boundary", slots: 8, tick: 100,
			preAdvance: 500, deadline: 1300, notFiredBy: 1200, firedBy: 1300},
		{name: "far-past-deadline", slots: 8, tick: 100,
			preAdvance: 1000, deadline: 50, firedBy: 1100},
		{name: "deadline-at-now", slots: 8, tick: 100,
			preAdvance: 400, deadline: 400, firedBy: 500},
		{name: "beyond-revolution-boundary-aligned", slots: 4, tick: 100,
			deadline: 800, notFiredBy: 700, firedBy: 800},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewTimingWheel[string](tc.slots, tc.tick)
			if tc.preAdvance > 0 {
				w.Advance(tc.preAdvance)
			}
			w.Schedule(1, tc.deadline, "x")
			if tc.notFiredBy > 0 {
				if got := w.Advance(tc.notFiredBy); len(got) != 0 {
					t.Fatalf("fired %d entries by t=%d, too early (deadline %d)",
						len(got), tc.notFiredBy, tc.deadline)
				}
			}
			got := w.Advance(tc.firedBy)
			if len(got) != 1 {
				t.Fatalf("expected release by t=%d (deadline %d), got %d entries",
					tc.firedBy, tc.deadline, len(got))
			}
			if got[0].Deadline != tc.deadline && tc.deadline > w.Now()-tc.tick {
				t.Fatalf("released wrong entry: deadline %d", got[0].Deadline)
			}
			if w.Len() != 0 {
				t.Fatalf("wheel not empty after release: %d", w.Len())
			}
		})
	}
}

// A burst of entries spanning several revolutions must each fire exactly
// once, in a window no wider than one tick after its deadline, and never
// before the tick containing the deadline begins.
func TestTimingWheelMultiRevolutionSweep(t *testing.T) {
	const (
		slots = 8
		tick  = int64(100)
		n     = 200
	)
	w := NewTimingWheel[int](slots, tick)
	deadlines := make(map[uint64]int64, n)
	for i := 0; i < n; i++ {
		// Deadlines spread over ~6 revolutions, hitting boundaries often.
		d := int64(i) * 37 % (6 * slots * tick)
		if d < 1 {
			d = 1
		}
		deadlines[uint64(i)] = d
		w.Schedule(uint64(i), d, i)
	}
	fired := map[uint64]int64{}
	for now := tick; now <= 7*slots*tick; now += tick {
		for _, e := range w.Advance(now) {
			if _, dup := fired[e.Key]; dup {
				t.Fatalf("key %d fired twice", e.Key)
			}
			fired[e.Key] = now
			d := deadlines[e.Key]
			if now < d {
				t.Fatalf("key %d fired at %d before deadline %d", e.Key, now, d)
			}
			if now-d >= 2*tick {
				t.Fatalf("key %d fired at %d, %dns after deadline %d", e.Key, now, now-d, d)
			}
		}
	}
	if len(fired) != n {
		t.Fatalf("only %d/%d entries fired", len(fired), n)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not drained: %d", w.Len())
	}
}

// TestTimingWheelHostileTime is the wheel's time contract: Advance never
// panics and never moves backwards — a stale now is a counted no-op — a
// repeated or zero Advance releases nothing twice, an Advance into the
// far future releases what is due and costs no more than that, and a
// deadline already in the past fires on the next tick.
func TestTimingWheelHostileTime(t *testing.T) {
	w := NewTimingWheel[string](8, 100)
	if out := w.Advance(0); len(out) != 0 || w.Now() != 0 {
		t.Fatalf("Advance(0) on a new wheel: %v, now %d", out, w.Now())
	}
	w.Schedule(1, 250, "a")
	w.Schedule(2, 950, "b")
	w.Schedule(3, 5000, "c") // six revolutions out

	if out := w.Advance(300); len(out) != 1 || out[0].Payload != "a" {
		t.Fatalf("Advance(300) released %v, want a", out)
	}
	// Backwards, by a little and all the way: nothing moves.
	for _, now := range []int64{299, 0, -1, math.MinInt64} {
		if out := w.Advance(now); len(out) != 0 {
			t.Fatalf("Advance(%d) after 300 released %v", now, out)
		}
		if w.Now() != 300 || w.Len() != 2 {
			t.Fatalf("Advance(%d) after 300 moved the wheel: now %d, %d entries", now, w.Now(), w.Len())
		}
	}
	if w.Regressions() != 4 {
		t.Fatalf("regressions = %d, want 4", w.Regressions())
	}
	// Repeated: the same now twice releases nothing more.
	if out := w.Advance(300); len(out) != 0 || w.Regressions() != 4 {
		t.Fatalf("repeated Advance(300) released %v (regressions %d)", out, w.Regressions())
	}
	// A deadline in the past — before now, before zero — fires on the next
	// tick, not never and not at once.
	w.Schedule(4, 100, "past")
	w.Schedule(5, math.MinInt64, "long past")
	if w.Len() != 4 {
		t.Fatalf("len = %d after scheduling in the past, want 4", w.Len())
	}
	out := w.Advance(400)
	if len(out) != 2 || out[0].Payload != "past" || out[1].Payload != "long past" {
		t.Fatalf("Advance(400) released %v, want the two past deadlines", out)
	}

	// Far future: every live entry is released, multi-round ones included,
	// and the call returns — it does not walk 2^63/100 ticks.
	out = w.Advance(math.MaxInt64)
	if len(out) != 2 || out[0].Payload != "b" || out[1].Payload != "c" {
		t.Fatalf("Advance(MaxInt64) released %v, want b then c", out)
	}
	if w.Len() != 0 || math.MaxInt64-w.Now() >= 100 {
		t.Fatalf("after Advance(MaxInt64): %d entries, now %d", w.Len(), w.Now())
	}
	// The wheel still works out there, and still refuses to go back.
	w.Schedule(6, math.MaxInt64, "edge")
	if out := w.Advance(1 << 62); len(out) != 0 || w.Regressions() != 5 {
		t.Fatalf("Advance(2^62) after MaxInt64 released %v (regressions %d)", out, w.Regressions())
	}
	if w.Len() != 1 {
		t.Fatalf("len = %d at the edge of time, want 1", w.Len())
	}

	// The cursor a jump lands on is the one walking would have reached.
	walked, jumped := NewTimingWheel[any](8, 100), NewTimingWheel[any](8, 100)
	for now := int64(0); now <= 12345; now += 100 {
		walked.Schedule(9, now, nil) // keeps the walker non-empty: no jump
		walked.Advance(now)
	}
	walked.Advance(12345)
	jumped.Advance(12345)
	walked.Schedule(7, 12700, "x")
	jumped.Schedule(7, 12700, "x")
	for _, w := range []*TimingWheel[any]{walked, jumped} {
		if out := w.Advance(12600); len(out) != 0 {
			t.Fatalf("released %v before its deadline", out)
		}
		if out := w.Advance(12700); len(out) != 1 {
			t.Fatalf("released %v at its deadline, want x", out)
		}
	}
	if walked.Now() != jumped.Now() {
		t.Fatalf("walked to %d, jumped to %d", walked.Now(), jumped.Now())
	}
}
