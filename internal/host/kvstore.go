package host

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"smartwatch/internal/packet"
)

// KVStore is the flow-logging datastore standing in for the paper's Redis
// instance: per measurement interval the host cache flushes its aggregates
// here for offline forensics (heavy hitters, cardinality, Slowloris...).
// It is an in-memory store with optional append-only persistence, exposing
// the handful of operations the monitoring pipeline needs. The log is
// cumulative, but an interval stores only the aggregates that changed in
// it: the view as of an interval is the newest version of every flow at or
// before it, which Scan resolves newest-first.
//
// Every version lives in one FIFO arena, numbered by a sequence (seq) that
// never repeats; an interval is the range of seqs its flushes wrote. A
// version is keyed by its flow's FlowStore entry id, and the entry holds
// the low bits of its newest version's seq, so the log keeps no index.
type KVStore struct {
	mu sync.RWMutex
	// store feeds the log: each flush takes its changes, and its entry ids
	// key the versions.
	store *FlowStore
	// layers are the resident intervals, ascending by ts and back to back
	// in seq: the oldest starts at folded, the newest ends at next.
	layers []kvLayer
	// segs[:live] hold the versions from the segment of seq folded up to
	// at least next, back to back in seq order. A segment never moves;
	// once all its versions have folded it goes behind them, to segs[live:],
	// for the next flushes to fill.
	segs   []segment
	live   int
	grow   int   // length of the next new segment, doubling to maxChunk
	folded int64 // versions below this seq have folded into the base
	next   int64 // the seq the next version takes
	// base holds, in fold order, the newest folded version of every flow
	// retention folded; baseAt maps a flow's entry id to its base
	// position + 1 (0: none).
	base   []baseRecord
	baseAt []uint32
	aof    *bufio.Writer
	writes uint64
	// retention bounds the resident intervals for long-running sessions
	// (0 = unbounded, the batch-experiment default); older ones are folded
	// into the base: they leave Intervals, no flow leaves the view. AOF
	// persistence, if configured, still holds every record ever flushed.
	retention int
	dropped   uint64
}

// kvLayer is one resident interval: the versions with seqs in
// [first, end), in flush order.
type kvLayer struct {
	ts, first, end int64
}

// segment is a run of the arena: vs[i] is the version with seq first + i.
type segment struct {
	first int64
	vs    []version
}

// version is one logged aggregate of the flow with entry id id. next is
// the seq distance to the flow's next newer version (0: none yet), which
// shadows this one in the view as of any interval that holds both; a
// resident span never nears 2^32 versions.
type version struct {
	HostRecord
	id, next uint32
}

// baseRecord is a flow's newest folded version; next is the seq of its
// oldest resident version (MaxInt64: none).
type baseRecord struct {
	HostRecord
	next int64
}

// NewKVStore returns an empty log of fs's flows. If aof is non-nil, every
// flushed record is appended to it in a compact binary format (see
// ReadRecords).
func NewKVStore(fs *FlowStore, aof io.Writer) *KVStore {
	kv := &KVStore{store: fs}
	if aof != nil {
		kv.aof = bufio.NewWriterSize(aof, 1<<16)
	}
	return kv
}

// FlushInterval logs the flow store's aggregates under the interval's
// start timestamp. It takes only the records the store ingested since its
// previous flush. The log is cumulative: Scan(intervalTs) then visits
// every flow the store has ever held at its value as of this flush, and a
// flow without traffic keeps its last value and never leaves. Timestamps
// must not go backwards; the newest may repeat.
func (kv *KVStore) FlushInterval(intervalTs int64) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	fs := kv.store
	n := len(kv.layers)
	if n > 0 && intervalTs < kv.layers[n-1].ts {
		return fmt.Errorf("host: flush of interval %d behind the newest logged interval %d", intervalTs, kv.layers[n-1].ts)
	}
	if n == 0 || intervalTs > kv.layers[n-1].ts {
		kv.layers = append(grown(kv.layers, 16), kvLayer{intervalTs, kv.next, kv.next})
		n++
	}
	top := &kv.layers[n-1]
	kv.makeRoom(len(fs.dirty))
	fs.takeDirty(func(id uint32, e *flowEntry) {
		kv.put(top.first, id, e)
		kv.writes++
		if kv.aof != nil {
			// bufio.Writer keeps its first error and returns it from
			// Flush below; the in-memory log stays complete meanwhile.
			_ = writeRecord(kv.aof, intervalTs, e.HostRecord)
		}
	})
	top.end = kv.next
	kv.enforceRetention()
	if kv.aof != nil {
		if err := kv.aof.Flush(); err != nil {
			return fmt.Errorf("host: appending interval %d to the flow log: %w", intervalTs, err)
		}
	}
	return nil
}

// put logs entry e's aggregate in the newest interval, which starts at seq
// top: over its version there, or as a new version linked from the flow's
// newest resident version or its base record. Caller holds mu and made
// room.
func (kv *KVStore) put(top int64, id uint32, e *flowEntry) {
	// e.logged is the low 32 bits of the flow's newest seq; the resident
	// seq with those bits is that version if it carries the flow's id, and
	// otherwise the flow has none resident.
	var newest *version
	if s := kv.folded + int64(e.logged-uint32(kv.folded)); s < kv.next {
		if newest = kv.at(s); newest.id != id {
			newest = nil
		} else if s >= top {
			newest.HostRecord = e.HostRecord
			return
		}
	}
	v := kv.next
	kv.next++
	*kv.at(v) = version{HostRecord: e.HostRecord, id: id}
	if newest != nil {
		newest.next = uint32(v) - e.logged
	} else if int(id) < len(kv.baseAt) && kv.baseAt[id] > 0 {
		kv.base[kv.baseAt[id]-1].next = v
	}
	e.logged = uint32(v)
}

// at returns the version with seq s, resident or in the room past next.
// Caller holds mu.
func (kv *KVStore) at(s int64) *version {
	g := kv.seg(s)
	return &g.vs[s-g.first]
}

// run returns the versions with seqs from s up to end that share s's
// segment. Caller holds mu.
func (kv *KVStore) run(s, end int64) []version {
	g := kv.seg(s)
	return g.vs[s-g.first : min(end-g.first, int64(len(g.vs)))]
}

// seg returns the live segment holding seq s. Caller holds mu.
func (kv *KVStore) seg(s int64) *segment {
	i, ok := slices.BinarySearchFunc(kv.segs[:kv.live], s, func(g segment, s int64) int { return cmp.Compare(g.first, s) })
	if !ok {
		i--
	}
	return &kv.segs[i]
}

// makeRoom makes n versions fit past next: folded segments first, then one
// new segment sized for the rest, and no smaller than the next doubling.
// Caller holds mu.
func (kv *KVStore) makeRoom(n int) {
	for {
		end := kv.next
		if kv.live > 0 {
			g := kv.segs[kv.live-1]
			end = g.first + int64(len(g.vs))
		}
		need := n - int(end-kv.next)
		if need <= 0 {
			return
		}
		if kv.live == len(kv.segs) {
			kv.grow = min(max(2*kv.grow, minChunk), maxChunk)
			kv.segs = append(grown(kv.segs, 8), segment{vs: make([]version, max(need, kv.grow))})
		}
		kv.segs[kv.live].first = end
		kv.live++
	}
}

// grown returns s with room for one more element: as it is, or doubled
// to at least floor, so a short list starts with one allocation, not
// several.
func grown[T any](s []T, floor int) []T {
	if len(s) < cap(s) {
		return s
	}
	return append(make([]T, 0, max(2*len(s), floor)), s...)
}

// SetRetention bounds how many intervals stay resident in memory (0 =
// unbounded). The daemon's soak path sets this so an unbounded run keeps a
// flat heap; the final lossless flush is unaffected (it always lands in
// the newest interval, and folding keeps every flow in the view).
func (kv *KVStore) SetRetention(n int) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.retention = n
	kv.enforceRetention()
}

// DroppedIntervals reports how many intervals retention has evicted from
// memory.
func (kv *KVStore) DroppedIntervals() uint64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.dropped
}

// enforceRetention folds the oldest intervals beyond the cap into the
// base, oldest version first so newer ones overwrite, and frees the
// segments left with no resident version. Caller holds mu.
func (kv *KVStore) enforceRetention() {
	excess := len(kv.layers) - kv.retention
	if kv.retention <= 0 || excess <= 0 {
		return
	}
	end := kv.layers[excess-1].end
	for s := kv.folded; s < end; {
		vs := kv.run(s, end)
		for i := range vs {
			kv.fold(s+int64(i), &vs[i])
		}
		s += int64(len(vs))
	}
	kv.folded = end
	kv.dropped += uint64(excess)
	kv.layers = slices.Delete(kv.layers, 0, excess)
	for kv.live > 1 && kv.segs[1].first <= end {
		g := kv.segs[0]
		copy(kv.segs, kv.segs[1:])
		kv.segs[len(kv.segs)-1] = g
		kv.live--
	}
}

// fold moves version s into the base: over the flow's base record, or
// appended as its first. Caller holds mu.
func (kv *KVStore) fold(s int64, v *version) {
	r := baseRecord{v.HostRecord, math.MaxInt64}
	if v.next != 0 {
		r.next = s + int64(v.next)
	}
	if n := int(v.id) + 1; n > len(kv.baseAt) {
		kv.baseAt = append(kv.baseAt, make([]uint32, max(n, 2*len(kv.baseAt), minChunk)-len(kv.baseAt))...)
	}
	if p := kv.baseAt[v.id]; p > 0 {
		kv.base[p-1] = r
		return
	}
	kv.base = append(grown(kv.base, minChunk), r)
	kv.baseAt[v.id] = uint32(len(kv.base))
}

// Intervals lists stored interval timestamps in ascending order.
func (kv *KVStore) Intervals() []int64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	out := make([]int64, 0, len(kv.layers))
	for _, l := range kv.layers {
		out = append(out, l.ts)
	}
	return out
}

// Scan visits every record of the cumulative view as of one interval,
// each flow once: newest interval first, each in flush order, then the
// base in fold order. A version is in the view unless the flow's next
// newer one is too, that is, has a seq below the interval's end.
func (kv *KVStore) Scan(intervalTs int64, fn func(HostRecord) bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	top, ok := slices.BinarySearchFunc(kv.layers, intervalTs, func(l kvLayer, ts int64) int { return cmp.Compare(l.ts, ts) })
	if !ok {
		return
	}
	end := kv.layers[top].end
	for i := top; i >= 0; i-- {
		l := kv.layers[i]
		for s := l.first; s < l.end; {
			vs := kv.run(s, l.end)
			for j := range vs {
				if next := vs[j].next; next != 0 && s+int64(j)+int64(next) < end {
					continue
				}
				if !fn(vs[j].HostRecord) {
					return
				}
			}
			s += int64(len(vs))
		}
	}
	for i := range kv.base {
		if kv.base[i].next < end {
			continue
		}
		if !fn(kv.base[i].HostRecord) {
			return
		}
	}
}

// Writes returns the total records written.
func (kv *KVStore) Writes() uint64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.writes
}

// recordWireBytes is the AOF record size: interval + key + counters.
const recordWireBytes = 8 + 13 + 8*4 + 8 + 8 + 4

func writeRecord(w io.Writer, intervalTs int64, hr HostRecord) error {
	var buf [recordWireBytes]byte
	b := buf[:0]
	b = binary.BigEndian.AppendUint64(b, uint64(intervalTs))
	b = binary.BigEndian.AppendUint32(b, uint32(hr.Key.LoIP))
	b = binary.BigEndian.AppendUint32(b, uint32(hr.Key.HiIP))
	b = binary.BigEndian.AppendUint16(b, hr.Key.LoPort)
	b = binary.BigEndian.AppendUint16(b, hr.Key.HiPort)
	b = append(b, byte(hr.Key.Proto))
	b = binary.BigEndian.AppendUint64(b, hr.Pkts)
	b = binary.BigEndian.AppendUint64(b, hr.Bytes)
	b = binary.BigEndian.AppendUint64(b, uint64(hr.FirstTs))
	b = binary.BigEndian.AppendUint64(b, uint64(hr.LastTs))
	b = binary.BigEndian.AppendUint64(b, hr.State)
	b = binary.BigEndian.AppendUint64(b, uint64(hr.StateTs))
	b = binary.BigEndian.AppendUint32(b, uint32(hr.Exports))
	_, err := w.Write(b)
	return err
}

// ReadRecords parses an append-only log produced with an AOF-backed store.
// It holds per-interval deltas, not snapshots: under each timestamp, in
// append order, the aggregates that changed then (none: interval absent).
// To rebuild the view as of T, replay the intervals up to T in ascending
// order into one map keyed by flow, later records overwriting earlier.
func ReadRecords(r io.Reader) (map[int64][]HostRecord, error) {
	br := bufio.NewReader(r)
	out := map[int64][]HostRecord{}
	var buf [recordWireBytes]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("host: reading AOF record: %w", err)
		}
		b := buf[:]
		ts := int64(binary.BigEndian.Uint64(b[0:8]))
		var hr HostRecord
		hr.Key.LoIP = packet.Addr(binary.BigEndian.Uint32(b[8:12]))
		hr.Key.HiIP = packet.Addr(binary.BigEndian.Uint32(b[12:16]))
		hr.Key.LoPort = binary.BigEndian.Uint16(b[16:18])
		hr.Key.HiPort = binary.BigEndian.Uint16(b[18:20])
		hr.Key.Proto = packet.Proto(b[20])
		hr.Pkts = binary.BigEndian.Uint64(b[21:29])
		hr.Bytes = binary.BigEndian.Uint64(b[29:37])
		hr.FirstTs = int64(binary.BigEndian.Uint64(b[37:45]))
		hr.LastTs = int64(binary.BigEndian.Uint64(b[45:53]))
		hr.State = binary.BigEndian.Uint64(b[53:61])
		hr.StateTs = int64(binary.BigEndian.Uint64(b[61:69]))
		hr.Exports = int(binary.BigEndian.Uint32(b[69:73]))
		out[ts] = append(out[ts], hr)
	}
}
