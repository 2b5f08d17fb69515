package packet

// Source is a packet supply with a lifecycle — the streaming twin of
// Stream (DESIGN.md §13.2). A Stream is pure pull: once its iterator
// returns, nothing remains to ask. Live supplies (a growing pcap file, a
// rate-controlled generator, eventually a socket) additionally need (a) an
// error channel out-of-band from the packet sequence, because a tail
// failure must be distinguishable from a clean end, and (b) teardown.
//
// The contract:
//
//   - Stream may be consumed at most once. It yields packets in
//     non-decreasing timestamp order and returns when the supply is
//     exhausted, fails, or the source is closed.
//   - Err reports why the stream ended: nil for a clean end (EOF, repeat
//     budget reached, Close), the underlying failure otherwise. Valid
//     after the stream returns.
//   - Close releases resources and unblocks a stream waiting for more
//     input (a follow tail, a rate gate). Safe to call concurrently with
//     the consuming goroutine and more than once.
type Source interface {
	Stream() Stream
	Err() error
	Close() error
}
