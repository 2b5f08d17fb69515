//go:build linux && !race

package flowcache

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14): fault a range in
// for writing, as a store to each page would, without changing a byte.
const madvPopulateWrite = 23

// mapped is the bytes of every table mapped and not yet unmapped.
var mapped atomic.Int64

// newStore takes the table of n records from an anonymous mapping, which
// the kernel backs a page at a time on first write, and backs its first
// `backed` records — the Primary runs — before New returns (DESIGN.md
// §9.5). The mapping is not Go heap, so no GC scans or counts it; it holds
// no pointers, and a finalizer unmaps it when the cache is unreachable.
// Only a GC runs that finalizer, and building caches alone grows no heap,
// so newStore first runs a GC itself once the tables still mapped pass
// the heap goal: a process that builds cache after cache holds the live
// ones and few dead.
func (c *Cache) newStore(n, backed int) {
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	if metrics.Read(goal); mapped.Load() > int64(goal[0].Value.Uint64()) {
		runtime.GC()
	}
	b, err := syscall.Mmap(-1, 0, n*recordSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("flowcache: mapping a %d-record table: %v", n, err))
	}
	c.mapping = b
	c.store = unsafe.Slice((*Record)(unsafe.Pointer(&b[0])), n)
	mapped.Add(int64(len(b)))
	runtime.SetFinalizer(c, func(c *Cache) {
		// Unmapping a whole mapping of our own has no failure to act on.
		_ = syscall.Munmap(c.mapping)
		mapped.Add(-int64(len(c.mapping)))
	})
	if p := b[:backed*recordSize]; !populateWrite(p) {
		// No MADV_POPULATE_WRITE: nothing else holds the table yet, so a
		// store a page apart does the same.
		for i := 0; i < len(p); i += os.Getpagesize() {
			p[i] = 0
		}
	}
}

// backEvictionRuns backs every Eviction run in one call. Records may be
// live there, and other goroutines may be writing them, which the
// populate leaves alone; a kernel without it keeps faulting the runs a
// page at a time, on first write.
func (c *Cache) backEvictionRuns() {
	populateWrite(c.mapping[c.cfg.Rows()*c.cfg.PrimaryBuckets*recordSize:])
}

// populateWrite faults b in for writing and reports whether the kernel did.
// An empty b (a geometry with no Eviction buffer) is a no-op.
func populateWrite(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MADVISE, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), madvPopulateWrite)
	return errno == 0
}
