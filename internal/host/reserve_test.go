package host

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/stats"
)

// TestFinalFlushReservesOnce: a final flush of 150 000 new flows, given
// their count, allocates the store's entry chunks and its chunk
// directory's doublings plus a fixed few — the flusher, store and log, the
// store's one index and one dirty list, the log's one segment for the
// flush, its segment list and layer list, the snapshot closure: 9, and one
// more under -race — and no index or dirty list per doubling.
func TestFinalFlushReservesOnce(t *testing.T) {
	recs := finalFlushRecords()
	last, _ := chunkOf(len(recs) - 1)
	chunks := last + 1
	directory := bits.Len(uint(chunks-1)) + 1
	const fixed = 10
	var f *Flusher
	got := testing.AllocsPerRun(2, func() { f = finalFlush(recs) })
	if want := chunks + directory + fixed; got > float64(want) {
		t.Errorf("final flush of %d new flows: %.0f allocations, want at most %d (%d chunks, %d directory doublings, %d fixed)",
			len(recs), got, want, chunks, directory, fixed)
	}
	if f.KV.store.Len() != len(recs) || f.KV.Writes() != uint64(len(recs)) {
		t.Fatalf("final flush stored %d flows and logged %d, want %d", f.KV.store.Len(), f.KV.Writes(), len(recs))
	}
	if got, want := len(f.KV.store.flows.slots), indexSlots(len(recs)); got != want {
		t.Errorf("store index holds %d slots, growth would have left %d", got, want)
	}
}

// Reserve sizes the index and the dirty list for the flows announced, and
// ingesting them grows neither.
func TestReserveGrowsOnce(t *testing.T) {
	const n = 5000
	fs := NewFlowStore(DefaultCostModel())
	fs.Ingest(flowcache.Record{Key: hkey(n), Pkts: 1})
	fs.Reserve(n)
	slots, dirty := len(fs.flows.slots), cap(fs.dirty)
	if slots != indexSlots(n+1) || dirty < n+1 {
		t.Fatalf("Reserve(%d) after one flow: %d slots and dirty capacity %d, want %d and at least %d", n, slots, dirty, indexSlots(n+1), n+1)
	}
	for i := range n {
		fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1})
	}
	if len(fs.flows.slots) != slots || cap(fs.dirty) != dirty {
		t.Errorf("ingesting %d reserved flows grew the index to %d slots (from %d) or the dirty list to %d (from %d)",
			n, len(fs.flows.slots), slots, cap(fs.dirty), dirty)
	}
}

// hostState is what a store and its flow log show a reader.
type hostState struct {
	each  []HostRecord
	got   []HostRecord // Get of every key the session could have used
	scans [][]HostRecord
	ivs   []int64
	aof   []byte
}

// reserveSession runs one scripted session through a store, its flusher
// and an AOF-backed flow log under retention 3, so older intervals fold
// into the base. Bursts bring new flows, flows already stored, or both;
// one flush in four re-flushes the newest interval, and the run ends in a
// final flush of a resident set that is part stored, part new. With
// reserve, every burst is announced by Reserve first — exactly, over by
// half, or as 0 — and the final flush is given the resident count.
func reserveSession(t *testing.T, reserve bool) hostState {
	t.Helper()
	var aof bytes.Buffer
	fs := NewFlowStore(DefaultCostModel())
	kv := NewKVStore(fs, &aof)
	kv.SetRetention(3)
	f := &Flusher{KV: kv}
	rng := stats.NewRand(11)
	next, ts := 0, int64(0) // next: the first key never ingested
	burst := func(n int) []int {
		keys := make([]int, n)
		for i := range keys {
			if next == 0 || rng.IntN(3) == 0 {
				keys[i] = next
				next++
			} else {
				keys[i] = rng.IntN(next)
			}
		}
		return keys
	}
	rec := func(k int) flowcache.Record {
		now := ts*100 + rng.Int64N(100)
		return flowcache.Record{Key: hkey(k), Pkts: uint64(1 + rng.IntN(5)), Bytes: 64, FirstTs: now - 5, LastTs: now, State: uint64(k), StateTs: now}
	}
	for step := range 60 {
		keys := burst(rng.IntN(1200))
		if reserve {
			switch step % 3 {
			case 0:
				fs.Reserve(len(keys))
			case 1:
				fs.Reserve(len(keys) + len(keys)/2 + 64)
			default:
				fs.Reserve(0)
			}
		}
		for _, k := range keys {
			fs.Ingest(rec(k))
		}
		if ts == 0 || rng.IntN(4) > 0 {
			ts++
		}
		if err := kv.FlushInterval(ts); err != nil {
			t.Fatal(err)
		}
	}
	final := burst(20_000)
	slices.Sort(final)
	final = slices.Compact(final) // a cache holds each flow once
	resident := 0
	if reserve {
		resident = len(final)
	}
	f.FinalFlush(ts+1, resident, func(fn func(flowcache.Record) bool) {
		for _, k := range final {
			if !fn(rec(k)) {
				return
			}
		}
	})
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	var st hostState
	fs.Each(func(hr HostRecord) bool { st.each = append(st.each, hr); return true })
	if len(st.each) != fs.Len() {
		t.Fatalf("Each visited %d flows, Len %d", len(st.each), fs.Len())
	}
	for k := range next + 10 {
		hr, _ := fs.Get(hkey(k))
		st.got = append(st.got, hr)
	}
	st.ivs = kv.Intervals()
	for _, iv := range st.ivs {
		var scan []HostRecord
		kv.Scan(iv, func(hr HostRecord) bool { scan = append(scan, hr); return true })
		st.scans = append(st.scans, scan)
	}
	st.aof = aof.Bytes()
	return st
}

// TestReserveMatchesGrowth is the parity oracle of Reserve: a session that
// announces its bursts, over or not at all, reads back exactly as one that
// grows as it goes — Each order, Len, Get, every resident interval's Scan
// order and the AOF bytes.
func TestReserveMatchesGrowth(t *testing.T) {
	grown, reserved := reserveSession(t, false), reserveSession(t, true)
	if !slices.Equal(grown.each, reserved.each) {
		t.Errorf("Each: %d flows grown, %d reserved, or in another order", len(grown.each), len(reserved.each))
	}
	if !slices.Equal(grown.got, reserved.got) {
		t.Error("Get answers differently after Reserve")
	}
	if !slices.Equal(grown.ivs, reserved.ivs) {
		t.Fatalf("resident intervals %v grown, %v reserved", grown.ivs, reserved.ivs)
	}
	for i, iv := range grown.ivs {
		if !slices.Equal(grown.scans[i], reserved.scans[i]) {
			t.Errorf("Scan(%d): %d records grown, %d reserved, or in another order", iv, len(grown.scans[i]), len(reserved.scans[i]))
		}
	}
	if !bytes.Equal(grown.aof, reserved.aof) {
		t.Errorf("AOF: %d bytes grown, %d reserved, and they differ", len(grown.aof), len(reserved.aof))
	}
	if len(grown.ivs) != 3 || len(grown.each) < 15_000 {
		t.Fatalf("session kept %d intervals and %d flows: want 3 resident after folds and a large final flush", len(grown.ivs), len(grown.each))
	}
}
