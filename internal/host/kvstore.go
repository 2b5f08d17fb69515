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
// it: the view as of an interval is the newest version of every key at or
// before it, which Scan and Get resolve newest-first.
type KVStore struct {
	mu sync.RWMutex
	// layers[1:] are the resident intervals, ascending by ts; layers[0] is
	// the base under them, every interval retention evicted folded in one.
	layers []kvLayer
	aof    *bufio.Writer
	writes uint64
	// retention bounds the resident intervals for long-running sessions
	// (0 = unbounded, the batch-experiment default); older ones are folded
	// into the base: they leave Intervals, no flow leaves the view. AOF
	// persistence, if configured, still holds every record ever flushed.
	retention int
	dropped   uint64
}

// kvLayer holds the aggregates that changed in one interval.
type kvLayer struct {
	ts    int64
	delta map[packet.FlowKey]HostRecord
}

// NewKVStore returns an empty store. If aof is non-nil, every flushed
// record is appended to it in a compact binary format (see ReadRecords).
func NewKVStore(aof io.Writer) *KVStore {
	kv := &KVStore{layers: []kvLayer{{ts: math.MinInt64}}}
	if aof != nil {
		kv.aof = bufio.NewWriterSize(aof, 1<<16)
	}
	return kv
}

// FlushInterval logs the store's aggregates under the interval's start
// timestamp. It takes only the records fs ingested since its previous
// flush, so one FlowStore feeds one KVStore. The log is cumulative:
// Scan(intervalTs) then visits every flow fs has ever held at its value as
// of this flush, and a flow without traffic keeps its last value and never
// leaves. Timestamps must not go backwards; the newest may repeat.
func (kv *KVStore) FlushInterval(intervalTs int64, fs *FlowStore) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	top := &kv.layers[len(kv.layers)-1]
	if intervalTs < top.ts {
		return fmt.Errorf("host: flush of interval %d behind the newest logged interval %d", intervalTs, top.ts)
	}
	if intervalTs > top.ts {
		kv.layers = append(kv.layers, kvLayer{intervalTs, make(map[packet.FlowKey]HostRecord, len(fs.dirty))})
		top = &kv.layers[len(kv.layers)-1]
	}
	fs.takeDirty(func(hr HostRecord) {
		top.delta[hr.Key] = hr
		kv.writes++
		if kv.aof != nil {
			// bufio.Writer keeps its first error and returns it from
			// Flush below; the in-memory log stays complete meanwhile.
			_ = writeRecord(kv.aof, intervalTs, hr)
		}
	})
	kv.enforceRetention()
	if kv.aof != nil {
		if err := kv.aof.Flush(); err != nil {
			return fmt.Errorf("host: appending interval %d to the flow log: %w", intervalTs, err)
		}
	}
	return nil
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
// base, oldest first so newer versions overwrite. Caller holds mu.
func (kv *KVStore) enforceRetention() {
	excess := len(kv.layers) - 1 - kv.retention
	if kv.retention <= 0 || excess <= 0 {
		return
	}
	base := &kv.layers[0]
	for _, l := range kv.layers[1 : 1+excess] {
		if len(base.delta) == 0 {
			base.delta = l.delta
			continue
		}
		for k, hr := range l.delta {
			base.delta[k] = hr
		}
	}
	kv.dropped += uint64(excess)
	kv.layers = slices.Delete(kv.layers, 1, 1+excess)
}

// find returns the layer of the resident interval ts. Caller holds mu.
func (kv *KVStore) find(ts int64) (int, bool) {
	i, ok := slices.BinarySearchFunc(kv.layers, ts, func(l kvLayer, ts int64) int { return cmp.Compare(l.ts, ts) })
	return i, ok && i > 0
}

// Get fetches one flow's aggregate as of one interval.
func (kv *KVStore) Get(intervalTs int64, k packet.FlowKey) (HostRecord, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	i, ok := kv.find(intervalTs)
	for ; ok && i >= 0; i-- {
		if hr, hit := kv.layers[i].delta[k]; hit {
			return hr, true
		}
	}
	return HostRecord{}, false
}

// Intervals lists stored interval timestamps in ascending order.
func (kv *KVStore) Intervals() []int64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	out := make([]int64, 0, len(kv.layers)-1)
	for _, l := range kv.layers[1:] {
		out = append(out, l.ts)
	}
	return out
}

// Scan visits every record of the cumulative view as of one interval,
// each flow once.
func (kv *KVStore) Scan(intervalTs int64, fn func(HostRecord) bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	top, ok := kv.find(intervalTs)
	if !ok {
		return
	}
	// Newest layer first: the first version of a key met is the one in
	// force, and seen skips its older versions. The oldest non-empty layer
	// shadows nothing, so a view living in one layer builds no set.
	oldest := 0
	for oldest < top && len(kv.layers[oldest].delta) == 0 {
		oldest++
	}
	seen := map[packet.FlowKey]struct{}{}
	for i := top; i >= oldest; i-- {
		for k, hr := range kv.layers[i].delta {
			if _, shadowed := seen[k]; shadowed {
				continue
			}
			if i > oldest {
				seen[k] = struct{}{}
			}
			if !fn(hr) {
				return
			}
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
