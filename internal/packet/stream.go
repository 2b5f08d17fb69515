package packet

import "iter"

// Stream is a lazily produced sequence of packets in non-decreasing
// timestamp order. Trace generators, pcap readers and the simulators all
// speak Stream so multi-gigapacket traces never need to be resident in
// memory.
type Stream = iter.Seq[Packet]

// StreamOf adapts an in-memory trace to a Stream.
func StreamOf(pkts []Packet) Stream {
	return func(yield func(Packet) bool) {
		for _, p := range pkts {
			if !yield(p) {
				return
			}
		}
	}
}

// Collect drains a stream into a slice. Intended for tests and small
// traces.
func Collect(s Stream) []Packet {
	var out []Packet
	for p := range s {
		out = append(out, p)
	}
	return out
}
