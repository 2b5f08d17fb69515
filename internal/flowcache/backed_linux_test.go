//go:build !race

// Not built under the race detector: its shadow memory is first-touched by
// the fill and swamps the fault count.

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
	return ru.Minflt
}

// TestNewBacksTheTable: the datapath must not pay for first-touching the
// table. Filling every row of a freshly built RowBits-14 cache (15.7 MB,
// ~3 840 pages) through Process has to take fewer minor faults than 5 % of
// the table's page count; a lazily mapped table takes two per page (read
// fault on the probe, copy-on-write fault on the insert).
func TestNewBacksTheTable(t *testing.T) {
	cfg := DefaultConfig(14)
	cfg.RingEntries = 64 // overflow drops; a big ring would be first-touched by the evictions
	c := New(cfg)
	pages := int64(cfg.Rows()*cfg.Buckets) * int64(unsafe.Sizeof(Record{})) / int64(os.Getpagesize())

	n := cfg.Rows() * cfg.Buckets * 2 // ~24 flows per row: every bucket of every row is written
	before := minorFaults(t)
	for i := 0; i < n; i++ {
		p := pkt(i, int64(i))
		c.Process(&p)
	}
	faults := minorFaults(t) - before

	if occ := c.Occupancy(); occ < cfg.Rows()*cfg.Buckets*95/100 {
		t.Fatalf("occupancy %d of %d: the fill did not reach the whole table", occ, cfg.Rows()*cfg.Buckets)
	}
	t.Logf("%d minor faults filling a %d-page table", faults, pages)
	if limit := pages / 20; faults >= limit {
		t.Errorf("filling a fresh %d-page table took %d minor faults, want < %d", pages, faults, limit)
	}
}
