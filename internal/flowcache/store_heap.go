//go:build !linux || race

package flowcache

import "os"

// newStore takes the table of n records from the Go heap and writes a
// record a page apart, so the whole table is backed before New returns
// (DESIGN.md §9.5). It is the store on platforms without the anonymous
// mapping of store_linux.go, and under the race detector on every
// platform: the detector shadows the Go heap, not a mapping, so only here
// does it see the records' accesses.
func (c *Cache) newStore(n, _ int) {
	c.store = make([]Record, n)
	for i := 0; i < n; i += os.Getpagesize() / recordSize {
		c.store[i].StateTs = 0
	}
	c.store[n-1].StateTs = 0
}

// backEvictionRuns has nothing to do: newStore backed the whole table.
func (c *Cache) backEvictionRuns() {}
