package pcap

import (
	"container/heap"
	"iter"

	"smartwatch/internal/packet"
)

// Trace-preparation tools equivalent to the wireshark/tcpreplay utilities
// the paper uses to build its evaluation traces:
//
//	Shift     — editcap -t: move every timestamp by a fixed offset
//	Truncate  — tcprewrite: cap wire/capture length (64 B stress traces)
//	Merge     — mergecap: k-way merge of traces by timestamp
//
// All three operate on packet streams (iter.Seq) so multi-gigapacket traces
// never need to be resident in memory.

// Stream is a sequence of packets in non-decreasing timestamp order; see
// packet.Stream.
type Stream = packet.Stream

// Shift returns a stream with offsetNs added to every timestamp.
func Shift(s Stream, offsetNs int64) Stream {
	return func(yield func(packet.Packet) bool) {
		for p := range s {
			p.Ts += offsetNs
			if !yield(p) {
				return
			}
		}
	}
}

// Truncate caps every packet's Size at maxBytes without touching headers or
// payload accounting, mirroring how the paper truncates CAIDA packets to
// 64 B for stress tests: the flow key and per-packet costs shrink to the
// truncated size while PayloadLen keeps the logical length.
func Truncate(s Stream, maxBytes uint16) Stream {
	return func(yield func(packet.Packet) bool) {
		for p := range s {
			if p.Size > maxBytes {
				p.Size = maxBytes
			}
			if !yield(p) {
				return
			}
		}
	}
}

// mergeItem is one head-of-stream entry in the merge heap.
type mergeItem struct {
	pkt  packet.Packet
	next func() (packet.Packet, bool)
	stop func()
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].pkt.Ts < h[j].pkt.Ts }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Merge interleaves any number of timestamp-ordered streams into one
// timestamp-ordered stream (mergecap). Attack traces are typically Shift-ed
// into position and merged over a background trace.
func Merge(streams ...Stream) Stream {
	return func(yield func(packet.Packet) bool) {
		h := make(mergeHeap, 0, len(streams))
		defer func() {
			for _, it := range h {
				it.stop()
			}
		}()
		for _, s := range streams {
			next, stop := iter.Pull(s)
			p, ok := next()
			if !ok {
				stop()
				continue
			}
			h = append(h, mergeItem{pkt: p, next: next, stop: stop})
		}
		heap.Init(&h)
		for len(h) > 0 {
			it := h[0]
			if !yield(it.pkt) {
				return
			}
			p, ok := it.next()
			if ok {
				h[0].pkt = p
				heap.Fix(&h, 0)
			} else {
				it.stop()
				heap.Pop(&h)
			}
		}
	}
}

// WriteStream writes a whole stream through a Writer and flushes.
func WriteStream(w *Writer, s Stream) error {
	for p := range s {
		if err := w.WritePacket(&p); err != nil {
			return err
		}
	}
	return w.Flush()
}
