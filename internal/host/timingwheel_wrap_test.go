package host

import "testing"

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
			w := NewTimingWheel(tc.slots, tc.tick)
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
	w := NewTimingWheel(slots, tick)
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
