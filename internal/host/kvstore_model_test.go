package host

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// snapshotKV is the pre-delta KVStore, kept as the reference model: every
// flush copies the whole FlowStore into the interval's map and retention
// deletes the oldest snapshot. The delta store must present exactly this
// read side at O(changed) flush cost.
type snapshotKV struct {
	intervals map[int64]map[packet.FlowKey]HostRecord
	retention int
	dropped   uint64
}

func (o *snapshotKV) flush(ts int64, fs *FlowStore) {
	m := o.intervals[ts]
	if m == nil {
		m = map[packet.FlowKey]HostRecord{}
		o.intervals[ts] = m
	}
	fs.Each(func(hr HostRecord) bool { m[hr.Key] = hr; return true })
	o.enforce()
}

func (o *snapshotKV) setRetention(n int) { o.retention = n; o.enforce() }

func (o *snapshotKV) enforce() {
	for o.retention > 0 && len(o.intervals) > o.retention {
		delete(o.intervals, o.timestamps()[0])
		o.dropped++
	}
}

func (o *snapshotKV) timestamps() []int64 {
	out := make([]int64, 0, len(o.intervals))
	for ts := range o.intervals {
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanMap collects Scan(ts), failing on a flow visited twice.
func scanMap(t *testing.T, kv *KVStore, ts int64) map[packet.FlowKey]HostRecord {
	t.Helper()
	got := map[packet.FlowKey]HostRecord{}
	kv.Scan(ts, func(hr HostRecord) bool {
		if _, dup := got[hr.Key]; dup {
			t.Fatalf("Scan(%d) visited %v twice", ts, hr.Key)
		}
		got[hr.Key] = hr
		return true
	})
	return got
}

// checkAgainstOracle diffs the whole read side of kv against the model.
func checkAgainstOracle(t *testing.T, kv *KVStore, o *snapshotKV, step int) {
	t.Helper()
	want := o.timestamps()
	if got := kv.Intervals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Intervals = %v, oracle %v", step, got, want)
	}
	if kv.DroppedIntervals() != o.dropped {
		t.Fatalf("step %d: DroppedIntervals = %d, oracle %d", step, kv.DroppedIntervals(), o.dropped)
	}
	for _, ts := range want {
		snap := o.intervals[ts]
		if got := scanMap(t, kv, ts); !reflect.DeepEqual(got, snap) {
			t.Fatalf("step %d: Scan(%d) = %d records, oracle %d:\n got %v\nwant %v", step, ts, len(got), len(snap), got, snap)
		}
	}
	// An interval retention evicted (or never logged) reads as empty.
	gone := int64(-1)
	if len(want) > 0 {
		gone = want[0] - 1
	}
	if n := len(scanMap(t, kv, gone)); n != 0 {
		t.Fatalf("step %d: Scan of absent interval %d visited %d records", step, gone, n)
	}
}

// arenaCounts is what one step did to the version arena.
type arenaCounts struct {
	recycled    int // folded segments a flush took back
	overwritten int // versions a re-flush wrote over in place
	foldedOver  int // versions folded over an older base record
}

// arenaState is the part of a store's arena a step can change.
type arenaState struct {
	free                  map[*version]bool
	writes                uint64
	next, folded, baseLen int64
}

func arenaOf(kv *KVStore) arenaState {
	st := arenaState{free: map[*version]bool{}, writes: kv.writes, next: kv.next, folded: kv.folded, baseLen: int64(len(kv.base))}
	for _, g := range kv.segs[kv.live:] {
		st.free[&g.vs[0]] = true
	}
	return st
}

// countStep adds what the arena went through from before to kv's state.
func (c *arenaCounts) countStep(before arenaState, kv *KVStore) {
	for _, g := range kv.segs[:kv.live] {
		if before.free[&g.vs[0]] {
			c.recycled++
		}
	}
	c.overwritten += int(kv.writes-before.writes) - int(kv.next-before.next)
	c.foldedOver += int(kv.folded-before.folded) - (len(kv.base) - int(before.baseLen))
}

// TestKVStoreMatchesSnapshotModel drives random Ingest / FlushInterval
// (advancing and repeated timestamps) / SetRetention sequences through the
// delta store and the full-snapshot oracle and diffs the read side after
// every step that can change it. The wide case ingests bursts over 4 096
// flows, so fresh intervals take large sets. Every other burst is
// announced to the store by Reserve first. The cases must overwrite
// versions on re-flushes and fold versions over older base records, and
// the wide one must refill segments whose versions all folded, or the
// diff proves nothing of them.
func TestKVStoreMatchesSnapshotModel(t *testing.T) {
	for _, tc := range []struct {
		name               string
		keys, seeds, steps int
		burst              int
		min                arenaCounts
		minFresh           int   // records in the largest fresh interval
		seq                int64 // the seq the store starts at
	}{
		{"48flows", 48, 20, 300, 1, arenaCounts{0, 20, 1000}, 2, 0},
		{"4096flows", 4096, 6, 50, 700, arenaCounts{3, 1000, 5000}, 1000, 0},
		// Seqs cross 2^32: the 32-bit handles in the entries wrap, and a
		// flow never logged aliases onto other flows' resident versions.
		{"4096flows/wrap", 4096, 6, 50, 700, arenaCounts{3, 1000, 5000}, 1000, 1<<32 - 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got arenaCounts
			largestFresh, lastSeq := 0, int64(0)
			for seed := uint64(1); seed <= uint64(tc.seeds); seed++ {
				rng := stats.NewRand(seed)
				fs := NewFlowStore(DefaultCostModel())
				kv := NewKVStore(fs, nil)
				kv.folded, kv.next = tc.seq, tc.seq
				o := &snapshotKV{intervals: map[int64]map[packet.FlowKey]HostRecord{}}
				ts, now := int64(0), int64(0)
				for step := 0; step < tc.steps; step++ {
					before := arenaOf(kv)
					switch op := rng.IntN(10); {
					case op < 6:
						burst := 1
						if tc.burst > 1 {
							burst += rng.IntN(tc.burst)
						}
						if step%2 == 0 {
							fs.Reserve(burst)
						}
						for range burst {
							now += 1 + rng.Int64N(50)
							fs.Ingest(flowcache.Record{
								Key: hkey(rng.IntN(tc.keys)), Pkts: uint64(1 + rng.IntN(9)), Bytes: uint64(64 + rng.IntN(1400)),
								FirstTs: now - rng.Int64N(40), LastTs: now, State: rng.Uint64() & 7, StateTs: now - rng.Int64N(3),
							})
						}
						continue
					case op < 9:
						if ts == 0 || rng.IntN(4) > 0 { // one flush in four re-flushes the newest interval
							ts += 1 + rng.Int64N(3)
						}
						if n := len(kv.layers); n == 0 || ts > kv.layers[n-1].ts {
							largestFresh = max(largestFresh, len(fs.dirty))
						}
						if err := kv.FlushInterval(ts); err != nil {
							t.Fatal(err)
						}
						o.flush(ts, fs)
					default:
						n := rng.IntN(6) // 0 lifts the bound again
						kv.SetRetention(n)
						o.setRetention(n)
					}
					got.countStep(before, kv)
					checkAgainstOracle(t, kv, o, step)
				}
				lastSeq = max(lastSeq, kv.next)
			}
			if got.recycled < tc.min.recycled || got.overwritten < tc.min.overwritten || got.foldedOver < tc.min.foldedOver {
				t.Errorf("%d segments recycled, %d versions overwritten by re-flushes, %d folded over a base record: want at least %d, %d, %d",
					got.recycled, got.overwritten, got.foldedOver, tc.min.recycled, tc.min.overwritten, tc.min.foldedOver)
			}
			if tc.seq > 0 && lastSeq <= 1<<32 {
				t.Errorf("seqs went from %d up to %d: want past 2^32", tc.seq, lastSeq)
			}
			if largestFresh < tc.minFresh {
				t.Errorf("the largest fresh interval took %d records, want at least %d", largestFresh, tc.minFresh)
			}
		})
	}
}

// The complexity contract: a flush writes the records dirtied since the
// previous flush — not the resident population.
func TestKVStoreFlushWritesOnlyDirtyRecords(t *testing.T) {
	const resident, touched = 2000, 17
	fs := NewFlowStore(DefaultCostModel())
	kv := NewKVStore(fs, nil)
	for i := 0; i < resident; i++ {
		fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1})
	}
	flush := func(ts int64) uint64 {
		t.Helper()
		before := kv.Writes()
		if err := kv.FlushInterval(ts); err != nil {
			t.Fatal(err)
		}
		return kv.Writes() - before
	}
	if n := flush(1); n != resident {
		t.Fatalf("first flush wrote %d records, want %d", n, resident)
	}
	for i := 0; i < touched; i++ {
		fs.Ingest(flowcache.Record{Key: hkey(i * 3), Pkts: 1})
		fs.Ingest(flowcache.Record{Key: hkey(i * 3), Pkts: 1}) // twice dirty is once written
	}
	if n := flush(2); n != touched {
		t.Fatalf("flush after touching %d records wrote %d", touched, n)
	}
	if n := flush(3); n != 0 {
		t.Fatalf("flush with nothing touched wrote %d records", n)
	}
	if n := len(scanMap(t, kv, 3)); n != resident {
		t.Fatalf("view as of the idle interval holds %d records, want %d", n, resident)
	}
	if hr, ok := scanMap(t, kv, 3)[hkey(0)]; !ok || hr.Pkts != 3 {
		t.Fatalf("Scan through an idle interval holds %+v %v, want 3 pkts", hr, ok)
	}
}

func TestKVStoreRejectsBackwardsInterval(t *testing.T) {
	fs := NewFlowStore(DefaultCostModel())
	kv := NewKVStore(fs, nil)
	fs.Ingest(flowcache.Record{Key: hkey(1), Pkts: 1})
	if err := kv.FlushInterval(10); err != nil {
		t.Fatal(err)
	}
	fs.Ingest(flowcache.Record{Key: hkey(2), Pkts: 1})
	if err := kv.FlushInterval(9); err == nil {
		t.Fatal("flush behind the newest interval accepted")
	}
	// The refused flush kept its changes for the next one.
	if err := kv.FlushInterval(10); err != nil {
		t.Fatal(err)
	}
	if _, ok := scanMap(t, kv, 10)[hkey(2)]; !ok {
		t.Error("record of the refused flush lost")
	}
}

// Readers Scan the flow log and list its intervals while a flush writes
// it: re-flushes overwrite the newest interval in place and retention
// folds intervals into the base under them. Run under -race in `make
// race`.
func TestKVStoreReadsDuringFlush(t *testing.T) {
	const keys = 2048
	fs := NewFlowStore(DefaultCostModel())
	kv := NewKVStore(fs, nil)
	kv.SetRetention(3)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ivs := kv.Intervals()
				if len(ivs) == 0 {
					continue
				}
				ts := ivs[i%len(ivs)]
				seen := map[packet.FlowKey]bool{}
				kv.Scan(ts, func(hr HostRecord) bool {
					if seen[hr.Key] {
						t.Errorf("reader %d: Scan(%d) visited %v twice", r, ts, hr.Key)
						return false
					}
					seen[hr.Key] = true
					return true
				})
			}
		}()
	}
	for ts := int64(1); ts <= 60; ts++ {
		for i := range 2 * int(ts) {
			fs.Ingest(flowcache.Record{Key: hkey((i * int(ts) * 31) % keys), Pkts: 1})
		}
		for range 2 { // the second flush of ts re-flushes the newest layer
			if err := kv.FlushInterval(ts); err != nil {
				t.Fatal(err)
			}
			fs.Ingest(flowcache.Record{Key: hkey(int(ts) * 7 % keys), Pkts: 1})
		}
	}
	close(done)
	readers.Wait()
}

// aofRun drives a fixed random session into an AOF-backed store.
func aofRun(t *testing.T, retention int) (*KVStore, []byte) {
	t.Helper()
	var aof bytes.Buffer
	fs := NewFlowStore(DefaultCostModel())
	kv := NewKVStore(fs, &aof)
	kv.SetRetention(retention)
	rng := stats.NewRand(7)
	for ts := int64(1); ts <= 40; ts++ {
		for i := rng.IntN(12); i > 0; i-- {
			fs.Ingest(flowcache.Record{Key: hkey(rng.IntN(30)), Pkts: 1, Bytes: 100, FirstTs: ts, LastTs: ts})
		}
		for range 1 + rng.IntN(2) { // sometimes the same interval twice
			if err := kv.FlushInterval(ts / 2); err != nil {
				t.Fatal(err)
			}
			fs.Ingest(flowcache.Record{Key: hkey(rng.IntN(30)), Pkts: 1, Bytes: 100, FirstTs: ts, LastTs: ts})
		}
	}
	if err := kv.FlushInterval(100); err != nil {
		t.Fatal(err)
	}
	return kv, aof.Bytes()
}

// The AOF is a delta log: replayed in ascending interval order, last write
// wins, it rebuilds the newest view; retention changes memory, not the log.
func TestKVStoreAOFReplayRebuildsNewestView(t *testing.T) {
	kv, log := aofRun(t, 0)
	recs, err := ReadRecords(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var tss []int64
	for ts := range recs {
		tss = append(tss, ts)
	}
	sort.Slice(tss, func(i, j int) bool { return tss[i] < tss[j] })
	replayed := map[packet.FlowKey]HostRecord{}
	for _, ts := range tss {
		for _, hr := range recs[ts] {
			replayed[hr.Key] = hr
		}
	}
	ivs := kv.Intervals()
	if want := scanMap(t, kv, ivs[len(ivs)-1]); !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed log holds %d flows, newest view %d:\n got %v\nwant %v", len(replayed), len(want), replayed, want)
	}
	if uint64(len(log)) != kv.Writes()*recordWireBytes {
		t.Errorf("log is %d bytes for %d writes of %d bytes", len(log), kv.Writes(), recordWireBytes)
	}

	bounded, boundedLog := aofRun(t, 3)
	if !bytes.Equal(log, boundedLog) {
		t.Error("retention changed the append-only log")
	}
	if got := bounded.Intervals(); len(got) != 3 {
		t.Fatalf("bounded store keeps %d intervals, want 3", len(got))
	}
	if got := scanMap(t, bounded, 100); !reflect.DeepEqual(got, replayed) {
		t.Error("bounded store's newest view differs from the replayed log")
	}
}
