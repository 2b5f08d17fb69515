package tier

import (
	"fmt"
	"sync"
	"sync/atomic"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
)

// Kind classifies a control-plane event.
type Kind uint8

// Event kinds — the control-plane taxonomy (DESIGN.md §8.2).
const (
	// KindWhitelist: a flow was judged benign; the switch should fast-path
	// it and the datapath should release its pinned record.
	KindWhitelist Kind = iota
	// KindBlacklist: a source was judged malicious; the switch should drop
	// its traffic.
	KindBlacklist
	// KindUnpin: a detector released a pinned FlowCache record.
	KindUnpin
	// KindInterval: a monitoring interval closed; tiers flush and
	// re-program.
	KindInterval
	// KindModeSwitch: a FlowCache shard flipped between General and Lite.
	KindModeSwitch
	kindCount
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindWhitelist:
		return "whitelist"
	case KindBlacklist:
		return "blacklist"
	case KindUnpin:
		return "unpin"
	case KindInterval:
		return "interval"
	case KindModeSwitch:
		return "mode-switch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Kinds lists every event kind, in declaration order — the control API's
// enumerable taxonomy.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindCount))
	for k := Kind(0); k < kindCount; k++ {
		out = append(out, k)
	}
	return out
}

// ParseKind maps a kind's String() name back to the Kind — the inverse
// used by the daemon's control API to accept kind names over the wire.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("tier: unknown event kind %q", s)
}

// Event is one typed control-plane message. The set is closed: every event
// type lives in this package so subscribers can type-assert exhaustively.
type Event interface {
	Kind() Kind
}

// WhitelistEvent requests a benign-flow install at the switch and a pin
// release at the datapath.
type WhitelistEvent struct {
	Key packet.FlowKey
	// Origin names the publisher ("detector", "hooks", "topk", ...).
	Origin string
}

// Kind implements Event.
func (WhitelistEvent) Kind() Kind { return KindWhitelist }

// BlacklistEvent requests a drop rule for the source at the switch.
type BlacklistEvent struct {
	Addr   packet.Addr
	Origin string
}

// Kind implements Event.
func (BlacklistEvent) Kind() Kind { return KindBlacklist }

// UnpinEvent releases a pinned FlowCache record.
type UnpinEvent struct {
	Key    packet.FlowKey
	Origin string
}

// Kind implements Event.
func (UnpinEvent) Kind() Kind { return KindUnpin }

// IntervalEvent marks the close of one monitoring interval. Subscribers
// run the control-loop heartbeat: the switch closes queries and steers
// fired subsets, the host drains eviction rings and flushes the flow log.
type IntervalEvent struct {
	// Ts is the interval's closing timestamp (virtual ns).
	Ts int64
	// Seq counts intervals from 1.
	Seq uint64
}

// Kind implements Event.
func (IntervalEvent) Kind() Kind { return KindInterval }

// ModeSwitchEvent reports a FlowCache shard flipping operating mode
// (Algorithm 4).
type ModeSwitchEvent struct {
	Shard int
	Mode  flowcache.Mode
	// Rate is the shard's smoothed arrival rate (pps) at the flip.
	Rate float64
	Ts   int64
}

// Kind implements Event.
func (ModeSwitchEvent) Kind() Kind { return KindModeSwitch }

// Handler consumes one event.
type Handler func(Event)

type subscriber struct {
	name string
	fn   Handler
	flat func(packet.FlowKey, packet.Addr) // set instead of fn by SubscribeFlat
}

// BusStats counts bus traffic.
type BusStats struct {
	// Published counts events offered per kind.
	Published [int(kindCount)]uint64
	// Delivered counts successful subscriber invocations.
	Delivered uint64
	// Panics counts subscriber panics (recovered; see Bus.Publish).
	Panics uint64
}

// Add returns the field-wise sum s + o — the merge the cluster runner
// applies across per-worker buses when folding reports.
func (s BusStats) Add(o BusStats) BusStats {
	out := s
	for i := range out.Published {
		out.Published[i] += o.Published[i]
	}
	out.Delivered += o.Delivered
	out.Panics += o.Panics
	return out
}

// PublishedFor returns the publish count for one kind.
func (s BusStats) PublishedFor(k Kind) uint64 {
	if int(k) >= len(s.Published) {
		return 0
	}
	return s.Published[k]
}

// Bus is the typed control-plane event bus. Publish is synchronous and
// ordered: subscribers of the event's kind run immediately, in
// subscription order, before Publish returns — so the packet path stays
// deterministic and the bus adds no queue to reason about. A panicking
// subscriber is isolated: the panic is recovered, counted, and the
// remaining subscribers still receive the event.
//
// Bus is safe for concurrent use; publishes from several goroutines
// serialise on an internal mutex (control events are rare, so the lock is
// uncontended in practice).
type Bus struct {
	mu   sync.Mutex
	subs [int(kindCount)][]subscriber
	// The traffic counters are atomics, NOT guarded by mu: subscribers
	// (e.g. the interval metrics collector) may call Stats from inside a
	// delivery, while Publish still holds mu — a mutex-guarded read there
	// would self-deadlock.
	published [int(kindCount)]atomic.Uint64
	delivered atomic.Uint64
	panics    atomic.Uint64
	lastPanic atomic.Pointer[string]
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers fn for events of kind k under a diagnostic name.
// Subscribers run in subscription order. It panics on an unknown kind or
// nil handler (programmer errors).
func (b *Bus) Subscribe(k Kind, name string, fn Handler) {
	b.subscribe(k, subscriber{name: name, fn: fn})
}

// SubscribeFlat is Subscribe — same order, same counters — for a handler
// that wants only a whitelist's or unpin's key or a blacklist's address
// (the other argument is zero), as plain values. See PublishFlat.
func (b *Bus) SubscribeFlat(k Kind, name string, fn func(key packet.FlowKey, addr packet.Addr)) {
	b.subscribe(k, subscriber{name: name, flat: fn})
}

func (b *Bus) subscribe(k Kind, s subscriber) {
	if k >= kindCount {
		panic(fmt.Sprintf("tier: subscribe to unknown kind %d", k))
	}
	if s.fn == nil && s.flat == nil {
		panic("tier: nil handler for " + s.name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[k] = append(b.subs[k], s)
}

// Publish delivers e to every subscriber of its kind, in subscription
// order, before returning.
func (b *Bus) Publish(e Event) {
	var key packet.FlowKey
	var addr packet.Addr
	switch ev := e.(type) { // what the kind's flat subscribers are handed
	case WhitelistEvent:
		key = ev.Key
	case UnpinEvent:
		key = ev.Key
	case BlacklistEvent:
		addr = ev.Addr
	}
	b.publish(e.Kind(), e, key, addr, "")
}

// PublishFlat is Publish of the WhitelistEvent / UnpinEvent{key, origin} or
// BlacklistEvent{addr, origin} k names, without the heap object an interface
// value costs: the event is built only if the kind has a Handler subscribed.
func (b *Bus) PublishFlat(k Kind, key packet.FlowKey, addr packet.Addr, origin string) {
	if k != KindWhitelist && k != KindUnpin && k != KindBlacklist {
		panic(fmt.Sprintf("tier: %v is not a flat kind", k))
	}
	b.publish(k, nil, key, addr, origin)
}

func (b *Bus) publish(k Kind, e Event, key packet.FlowKey, addr packet.Addr, origin string) {
	if k >= kindCount {
		panic(fmt.Sprintf("tier: publish of unknown kind %d", k))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.published[k].Add(1)
	for _, s := range b.subs[k] {
		if e == nil && s.flat == nil {
			switch k {
			case KindWhitelist:
				e = WhitelistEvent{Key: key, Origin: origin}
			case KindUnpin:
				e = UnpinEvent{Key: key, Origin: origin}
			default:
				e = BlacklistEvent{Addr: addr, Origin: origin}
			}
		}
		b.deliver(s, e, key, addr)
	}
}

// deliver runs one subscriber with panic isolation.
func (b *Bus) deliver(s subscriber, e Event, key packet.FlowKey, addr packet.Addr) {
	defer func() {
		if r := recover(); r != nil {
			b.panics.Add(1)
			msg := fmt.Sprintf("%s: %v", s.name, r)
			b.lastPanic.Store(&msg)
		}
	}()
	if s.flat != nil {
		s.flat(key, addr)
	} else {
		s.fn(e)
	}
	b.delivered.Add(1)
}

// Stats returns a snapshot of the bus counters. Lock-free, so subscribers
// may call it from inside a delivery (the in-flight event is counted as
// published but not yet delivered).
func (b *Bus) Stats() BusStats {
	var s BusStats
	for i := range b.published {
		s.Published[i] = b.published[i].Load()
	}
	s.Delivered = b.delivered.Load()
	s.Panics = b.panics.Load()
	return s
}

// LastPanic describes the most recent recovered subscriber panic ("" when
// none occurred).
func (b *Bus) LastPanic() string {
	if p := b.lastPanic.Load(); p != nil {
		return *p
	}
	return ""
}

// Subscribers lists the diagnostic names registered for a kind, in
// delivery order.
func (b *Bus) Subscribers(k Kind) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if k >= kindCount {
		return nil
	}
	out := make([]string, len(b.subs[k]))
	for i, s := range b.subs[k] {
		out[i] = s.name
	}
	return out
}
