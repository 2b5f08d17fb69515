package host

import (
	"cmp"
	"slices"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
)

// longestRun returns the length of the longest stretch of occupied slots,
// wrapping around the end: the worst probe a lookup can walk.
func longestRun(ix *flowIndex) int {
	longest, run := 0, 0
	for i := range 2 * len(ix.slots) {
		if ix.slots[i%len(ix.slots)] == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, min(run, len(ix.slots)))
	}
	return longest
}

// maxRowOrderRun bounds the longest occupied run in
// TestFlowIndexLinearInRowOrder. Homed on a remix of every hash bit, the
// run stays near the Θ(log n) of a random table at most half full (42–49
// slots here). Homed on the raw low bits, n keys sorted by those bits all
// home into the first n slots of a table not yet wider than the sort and
// pile into one run about n long (84 148 slots in row order). Homed on the
// raw top bits, one worker's or one shard's keys share those bits and home
// into a quarter of the table at load up to 2: the worker's run fills the
// whole table (262 144 slots), the shards' reaches 65 536. A lookup homed
// near a run's start walks it end to end.
const maxRowOrderRun = 64

// TestFlowIndexLinearInRowOrder: Cache.Snapshot hands records over row by
// row, sorted by the hash's low bits; Sharded.Snapshot does so shard by
// shard, and a shard is the hash's top bits; a cluster worker owns only
// the flows whose top bits name it. A final flush ingests the records in
// that order into the FlowStore, and a re-flush or a retention fold puts
// them into a KV layer sized for fewer. Feed 2^18 flows in each order
// through both, and measure each index's longest run whenever it is half
// full, just before it grows.
func TestFlowIndexLinearInRowOrder(t *testing.T) {
	const n, rowMask = 1 << 18, 1<<18 - 1
	byRow := func(a, b packet.FlowKey) int { return cmp.Compare(a.Hash()&rowMask, b.Hash()&rowMask) }
	for _, tc := range []struct {
		name  string
		owned func(packet.FlowKey) bool
		order func(a, b packet.FlowKey) int
	}{
		{"rows", nil, byRow},
		{"worker0of4", func(k packet.FlowKey) bool { return k.Hash()>>62 == 0 }, byRow},
		{"shards4", nil, func(a, b packet.FlowKey) int {
			return cmp.Or(cmp.Compare(a.Hash()>>62, b.Hash()>>62), byRow(a, b))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]packet.FlowKey, 0, n)
			for i := 0; len(keys) < n; i++ {
				if k := hkey(i); tc.owned == nil || tc.owned(k) {
					keys = append(keys, k)
				}
			}
			slices.SortStableFunc(keys, tc.order)
			fs := NewFlowStore(DefaultCostModel())
			var layer kvLayer
			worstStore, worstLayer := 0, 0
			for i, k := range keys {
				fs.Ingest(flowcache.Record{Key: k, Pkts: 1})
				layer.put(HostRecord{Key: k, Pkts: 1})
				if c := i + 1; c >= minIndexSlots/2 && c&(c-1) == 0 {
					worstStore = max(worstStore, longestRun(&fs.flows))
					worstLayer = max(worstLayer, longestRun(&layer.idx))
				}
			}
			if worstStore > maxRowOrderRun || worstLayer > maxRowOrderRun {
				t.Errorf("longest occupied run: FlowStore index %d slots, KV layer index %d, want at most %d", worstStore, worstLayer, maxRowOrderRun)
			}
			if fs.Len() != n || len(layer.recs) != n {
				t.Fatalf("%d flows in the store, %d in the layer, want %d", fs.Len(), len(layer.recs), n)
			}
		})
	}
}

// The flow log has one order: Each walks the store in first-ingest order,
// and Scan walks a one-layer view in flush order, which is the same.
func TestFlowLogOrderIsIngestOrder(t *testing.T) {
	const n = 3*entryChunk + 7
	fs := NewFlowStore(DefaultCostModel())
	for i := n - 1; i >= 0; i-- {
		fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1})
	}
	fs.Ingest(flowcache.Record{Key: hkey(n - 1), Pkts: 1}) // a merge keeps the first place
	kv := NewKVStore(nil)
	if err := kv.FlushInterval(1, fs); err != nil {
		t.Fatal(err)
	}
	var each, scan []packet.FlowKey
	fs.Each(func(hr HostRecord) bool { each = append(each, hr.Key); return true })
	kv.Scan(1, func(hr HostRecord) bool { scan = append(scan, hr.Key); return true })
	for i, k := range each {
		if want := hkey(n - 1 - i); k != want || scan[i] != want {
			t.Fatalf("position %d: Each %v, Scan %v, want %v", i, k, scan[i], want)
		}
	}
	if len(each) != n || len(scan) != n {
		t.Fatalf("Each visited %d, Scan %d, want %d", len(each), len(scan), n)
	}
}
