//go:build !amd64

package flowcache

import "unsafe"

// prefetcht0 is a no-op where no prefetch stub is written: Prefetch then
// only costs its address arithmetic, and the first probe takes the miss.
func prefetcht0(unsafe.Pointer) {}
