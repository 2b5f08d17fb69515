//go:build !race

// Not built under the race detector: its shadow memory is first-touched by
// the fill and swamps the fault count, and race builds take the table from
// the Go heap, backed whole in New (store_heap.go).

package flowcache

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

func minorFaults(t *testing.T) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return int64(ru.Minflt)
}

// residentPages counts the pages of recs that mincore reports resident.
func residentPages(t *testing.T, recs []Record) int {
	b := unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(recs)*recordSize)
	vec := make([]byte, (len(b)+os.Getpagesize()-1)/os.Getpagesize())
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatal(errno)
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n
}

// fillFlows picks flows pkt(from), pkt(from+1), … until every cell holds
// perCell of them, a cell being what cellOf maps a flow's hash to. It
// returns the i of each flow that fills the cells exactly — an int32, not
// the packet, so the fill's own memory stays small beside the table's —
// and the next unused i.
func fillFlows(cells, perCell int, from int, cellOf func(hash uint64) int) ([]int32, int) {
	held := make([]int, cells)
	out := make([]int32, 0, cells*perCell)
	i := from
	for left := cells * perCell; left > 0; i++ {
		p := pkt(i, int64(i))
		if c := cellOf(p.Key().Hash()); held[c] < perCell {
			held[c]++
			left--
			out = append(out, int32(i))
		}
	}
	return out, i
}

// TestNewBacksTheTable: New backs the row headers and the Primary runs,
// and the Eviction runs are backed on demand (DESIGN.md §9.5). On a fresh
// RowBits-14 cache (12.6 MB, 3,072 pages: 1,024 of Primary runs, 2,048 of
// Eviction runs), through Process:
//
//   - filling every row's Primary buffer in General mode faults on fewer
//     than 5 % of the Primary pages, and leaves the Eviction runs
//     non-resident;
//   - filling the rest of every row faults at most once per Eviction page
//     (a free bucket is never read, so no page is mapped for reading and
//     then copied for writing), with the 5 % of the table as slack for the
//     runtime's own first touches;
//   - on a second fresh cache, after the first switch to Lite, filling
//     every Lite slice faults on fewer than 5 % of the Eviction pages.
func TestNewBacksTheTable(t *testing.T) {
	cfg := DefaultConfig(14)
	cfg.RingEntries = 64 // a big ring would be first-touched by evictions
	R, P, b := cfg.Rows(), cfg.PrimaryBuckets, cfg.LiteBuckets
	page := os.Getpagesize()
	pPages, ePages := R*P*recordSize/page, R*cfg.EvictionBuckets*recordSize/page
	row := func(h uint64) int { return int(h) & (R - 1) }

	primary, next := fillFlows(R, P, 0, row)
	rest, _ := fillFlows(R, cfg.Buckets-P, next, row)
	c := New(cfg)
	eRuns := c.store[R*P:]
	process := func(c *Cache, flows []int32) int64 {
		before := minorFaults(t)
		for _, i := range flows {
			p := pkt(int(i), int64(i))
			c.Process(&p)
		}
		return minorFaults(t) - before
	}

	faults := process(c, primary)
	t.Logf("Primary fill: %d faults for %d Primary pages", faults, pPages)
	if c.Occupancy() != R*P || c.Stats().EHits+c.Stats().Evictions != 0 {
		t.Fatalf("occupancy %d, want every Primary bucket (%d) and nothing else", c.Occupancy(), R*P)
	}
	if limit := int64(pPages / 20); faults >= limit {
		t.Errorf("filling the Primary runs took %d faults, want < %d", faults, limit)
	}
	if n := residentPages(t, eRuns); n >= ePages/20 {
		t.Errorf("%d of %d Eviction pages are resident after a Primary-only fill, want < %d", n, ePages, ePages/20)
	}

	faults = process(c, rest)
	t.Logf("Eviction fill: %d faults for %d Eviction pages", faults, ePages)
	if c.Occupancy() < R*cfg.Buckets*95/100 {
		t.Fatalf("occupancy %d of %d: the fill did not reach the whole table", c.Occupancy(), R*cfg.Buckets)
	}
	if limit := int64(ePages + (pPages+ePages)/20); faults > limit {
		t.Errorf("filling the Eviction runs took %d faults, want at most one a page (%d) plus slack: <= %d", faults, ePages, limit)
	}

	lite := New(cfg)
	lite.SetMode(Lite)
	slices := cfg.Buckets / b
	cell := func(h uint64) int { lo, _ := lite.liteSlice(h); return row(h)*slices + lo/b }
	flows, _ := fillFlows(R*slices, b, 0, cell)
	faults = process(lite, flows)
	t.Logf("Lite fill after the first switch: %d faults for %d Eviction pages", faults, ePages)
	if lite.Occupancy() != R*cfg.Buckets {
		t.Fatalf("Lite occupancy %d, want every bucket (%d)", lite.Occupancy(), R*cfg.Buckets)
	}
	if limit := int64(ePages / 20); faults >= limit {
		t.Errorf("filling every Lite slice after the switch took %d faults, want < %d", faults, limit)
	}
}
