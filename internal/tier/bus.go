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
	// KindWhitelist: a flow was judged benign; the switch fast-paths it
	// and the datapath has released its pinned record.
	KindWhitelist Kind = iota
	// KindBlacklist: a source was judged malicious; the switch drops its
	// traffic.
	KindBlacklist
	// KindUnpin: a pinned FlowCache record was released.
	KindUnpin
	// KindInterval: a monitoring interval closed; the switch has steered
	// and the host has flushed.
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

// Event is one typed control-plane message. The set is closed: every event
// type lives in this package so observers can type-assert exhaustively.
type Event interface {
	Kind() Kind
}

// WhitelistEvent reports a benign-flow install at the switch and a pin
// release at the datapath.
type WhitelistEvent struct {
	Key packet.FlowKey
	// Origin names who asked: "detector" (a verdict), "hooks" (a detector's
	// Tick-time hook) or "control" (an operator).
	Origin string
}

// Kind implements Event.
func (WhitelistEvent) Kind() Kind { return KindWhitelist }

// BlacklistEvent reports a drop rule for the source at the switch.
type BlacklistEvent struct {
	Addr   packet.Addr
	Origin string
}

// Kind implements Event.
func (BlacklistEvent) Kind() Kind { return KindBlacklist }

// UnpinEvent reports a released FlowCache pin.
type UnpinEvent struct {
	Key    packet.FlowKey
	Origin string
}

// Kind implements Event.
func (UnpinEvent) Kind() Kind { return KindUnpin }

// IntervalEvent marks the close of one monitoring interval, after the
// control-loop heartbeat ran: the switch closed queries and steered fired
// subsets, the host drained eviction rings and flushed the flow log.
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

// BusStats counts bus traffic.
type BusStats struct {
	// Published counts events offered per kind.
	Published [int(kindCount)]uint64
	// Delivered counts each tier reaction the platform applied plus each
	// observer that returned.
	Delivered uint64
	// Panics counts observer panics (recovered; see Publish).
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

// Bus is the control plane's observer list. The platform applies its own
// reactions to an event by direct calls (DESIGN.md §8.2) and then
// publishes it: the bus counts it and hands it to the observers of its
// kind — the metrics emit, the cluster uplink, tests, the benchmark's
// tracer — synchronously, in subscription order, before Publish returns.
// A panicking observer is isolated: the panic is recovered and counted,
// and the remaining observers still receive the event.
//
// Bus is safe for concurrent use; publishes from several goroutines
// serialise on an internal mutex (control events are rare, so the lock is
// uncontended in practice).
type Bus struct {
	mu   sync.Mutex
	subs [int(kindCount)][]Handler
	// The traffic counters are atomics, NOT guarded by mu: observers
	// (e.g. the interval metrics emit) may call Stats from inside a
	// delivery, while Publish still holds mu — a mutex-guarded read there
	// would self-deadlock.
	published [int(kindCount)]atomic.Uint64
	delivered atomic.Uint64
	panics    atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers fn as an observer of events of kind k. Observers run
// in subscription order. It panics on an unknown kind or a nil handler
// (programmer errors); name labels that panic.
func (b *Bus) Subscribe(k Kind, name string, fn Handler) {
	if k >= kindCount {
		panic(fmt.Sprintf("tier: subscribe to unknown kind %d", k))
	}
	if fn == nil {
		panic("tier: nil handler for " + name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[k] = append(b.subs[k], fn)
}

// Publish counts e as published and its applied reactions as delivered,
// then hands e to every observer of its kind, in subscription order,
// before returning. The interface value an observer receives is built
// only when the kind has one, so an unobserved event costs no heap object.
func Publish[E Event](b *Bus, e E, applied uint64) {
	k := e.Kind()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.published[k].Add(1)
	b.delivered.Add(applied)
	if len(b.subs[k]) == 0 {
		return
	}
	var ev Event = e
	for _, fn := range b.subs[k] {
		b.deliver(fn, ev)
	}
}

// deliver runs one observer with panic isolation.
func (b *Bus) deliver(fn Handler, e Event) {
	defer func() {
		if recover() != nil {
			b.panics.Add(1)
		}
	}()
	fn(e)
	b.delivered.Add(1)
}

// Stats returns a snapshot of the bus counters. Lock-free, so observers
// may call it from inside a delivery (the in-flight event is counted as
// published but not yet delivered to them).
func (b *Bus) Stats() BusStats {
	var s BusStats
	for i := range b.published {
		s.Published[i] = b.published[i].Load()
	}
	s.Delivered = b.delivered.Load()
	s.Panics = b.panics.Load()
	return s
}
