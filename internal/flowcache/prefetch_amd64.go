package flowcache

import "unsafe"

// prefetcht0 asks the CPU to bring the cache line holding *p into every
// cache level. It is a hint, not an access: nothing is loaded into a
// register, a bad address does not fault, and — the reason it is assembly
// and not a Go load — it is not a read in the memory model's sense, so it
// may name bucket memory another goroutine holds the latch on.
//
//go:noescape
func prefetcht0(p unsafe.Pointer)
