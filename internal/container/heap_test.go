package container

import (
	"math/rand"
	"sort"
	"testing"
)

// popAll drains the heap, verifying ascending (Pri, Tie) order.
func popAll(t *testing.T, h *Heap[int, int, string]) []Item[int, int, string] {
	t.Helper()
	var out []Item[int, int, string]
	for h.Len() > 0 {
		it := h.PopMin()
		if n := len(out); n > 0 && it.Less(out[n-1]) {
			t.Fatalf("pop order violated: %v after %v", it, out[n-1])
		}
		out = append(out, it)
	}
	return out
}

func TestHeapPushPopOrder(t *testing.T) {
	var h Heap[int, int, string]
	in := []Item[int, int, string]{
		{5, 0, "e"}, {1, 0, "a"}, {3, 0, "c"}, {4, 0, "d"}, {2, 0, "b"}, {0, 0, "_"},
	}
	for _, it := range in {
		h.Push(it)
	}
	got := popAll(t, &h)
	if len(got) != len(in) {
		t.Fatalf("popped %d items, pushed %d", len(got), len(in))
	}
	for i, it := range got {
		if it.Pri != i {
			t.Errorf("pop %d: Pri = %d", i, it.Pri)
		}
	}
}

func TestHeapTieBreaksOnTie(t *testing.T) {
	var h Heap[int, int, string]
	h.Push(Item[int, int, string]{7, 3, "late"})
	h.Push(Item[int, int, string]{7, 1, "early"})
	h.Push(Item[int, int, string]{7, 2, "mid"})
	want := []string{"early", "mid", "late"}
	for i, w := range want {
		if got := h.PopMin().Val; got != w {
			t.Errorf("pop %d = %q, want %q", i, got, w)
		}
	}
}

func TestHeapInitHeapifies(t *testing.T) {
	items := make([]Item[int, int, string], 0, 32)
	for i := 31; i >= 0; i-- {
		items = append(items, Item[int, int, string]{Pri: i})
	}
	var h Heap[int, int, string]
	h.Init(items)
	got := popAll(t, &h)
	for i, it := range got {
		if it.Pri != i {
			t.Fatalf("pop %d: Pri = %d after Init", i, it.Pri)
		}
	}
}

// TestHeapFixRootScheduler exercises the scheduling pattern: repeatedly
// read the root, grow its priority, FixRoot — the selection sequence must
// equal a reference simulation over a sorted multiset.
func TestHeapFixRootScheduler(t *testing.T) {
	const threads, rounds = 13, 500
	var h Heap[int, int, string]
	ref := make([]Item[int, int, string], 0, threads)
	for i := 0; i < threads; i++ {
		it := Item[int, int, string]{Pri: 0, Tie: i}
		h.Push(it)
		ref = append(ref, it)
	}
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < rounds; r++ {
		// Reference: pick the (Pri, Tie)-smallest from the flat slice.
		best := 0
		for i := 1; i < len(ref); i++ {
			if ref[i].Less(ref[best]) {
				best = i
			}
		}
		work := rng.Intn(50) + 1
		root := h.Root()
		if root.Pri != ref[best].Pri || root.Tie != ref[best].Tie {
			t.Fatalf("round %d: root (%d,%d), reference (%d,%d)",
				r, root.Pri, root.Tie, ref[best].Pri, ref[best].Tie)
		}
		root.Pri += work
		h.FixRoot()
		ref[best].Pri += work
	}
}

// TestHeapFuzzAgainstSort cross-checks mixed Push/PopMin traffic against a
// sorted reference.
func TestHeapFuzzAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Heap[int, int, string]
	var ref []Item[int, int, string]
	for op := 0; op < 5000; op++ {
		if h.Len() == 0 || rng.Intn(3) != 0 {
			it := Item[int, int, string]{Pri: rng.Intn(100), Tie: op}
			h.Push(it)
			ref = append(ref, it)
			continue
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
		want := ref[0]
		ref = ref[1:]
		got := h.PopMin()
		if got != want {
			t.Fatalf("op %d: PopMin = %v, want %v", op, got, want)
		}
	}
}

func TestHeapGrowKeepsContents(t *testing.T) {
	var h Heap[int, int, string]
	h.Push(Item[int, int, string]{2, 0, "b"})
	h.Push(Item[int, int, string]{1, 0, "a"})
	h.Grow(100)
	if h.Len() != 2 {
		t.Fatalf("Len = %d after Grow", h.Len())
	}
	if got := h.PopMin().Val; got != "a" {
		t.Fatalf("PopMin after Grow = %q", got)
	}
}
