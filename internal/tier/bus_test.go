package tier

import (
	"fmt"
	"sync"
	"testing"

	"smartwatch/internal/packet"
)

// TestBusOrderingGuarantees: events reach subscribers in publish order,
// and a kind's subscribers run in subscription order for every event.
func TestBusOrderingGuarantees(t *testing.T) {
	b := NewBus()
	var log []string
	for _, name := range []string{"first", "second"} {
		name := name
		b.Subscribe(KindWhitelist, name, func(e Event) {
			log = append(log, fmt.Sprintf("%s:%v", name, e.(WhitelistEvent).Key.LoPort))
		})
	}
	for port := 1; port <= 3; port++ {
		Publish(b, WhitelistEvent{Key: packet.FlowKey{LoPort: uint16(port)}}, 0)
	}
	want := []string{"first:1", "second:1", "first:2", "second:2", "first:3", "second:3"}
	if len(log) != len(want) {
		t.Fatalf("deliveries = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
}

// TestBusSubscriberIsolation: a panicking observer must not drop the
// event for its peers, nor kill the publisher. Delivered counts the
// reactions the publisher applied plus each observer that returned.
func TestBusSubscriberIsolation(t *testing.T) {
	b := NewBus()
	var before, after int
	b.Subscribe(KindBlacklist, "healthy-before", func(Event) { before++ })
	b.Subscribe(KindBlacklist, "chaos", func(Event) { panic("subscriber bug") })
	b.Subscribe(KindBlacklist, "healthy-after", func(Event) { after++ })

	Publish(b, BlacklistEvent{Addr: 1}, 1)
	Publish(b, BlacklistEvent{Addr: 2}, 1)

	if before != 2 || after != 2 {
		t.Errorf("healthy subscribers saw %d/%d events, want 2/2", before, after)
	}
	st := b.Stats()
	if st.Panics != 2 {
		t.Errorf("Panics = %d, want 2", st.Panics)
	}
	if st.Delivered != 6 {
		t.Errorf("Delivered = %d, want 2 reactions + 4 observers (panicking deliveries don't count)", st.Delivered)
	}
}

func TestBusKindFanoutIsScoped(t *testing.T) {
	b := NewBus()
	var wl, bl int
	b.Subscribe(KindWhitelist, "wl", func(Event) { wl++ })
	b.Subscribe(KindBlacklist, "bl", func(Event) { bl++ })
	Publish(b, WhitelistEvent{}, 0)
	Publish(b, WhitelistEvent{}, 0)
	Publish(b, BlacklistEvent{}, 0)
	if wl != 2 || bl != 1 {
		t.Errorf("fanout wl=%d bl=%d, want 2/1", wl, bl)
	}
	st := b.Stats()
	if st.PublishedFor(KindWhitelist) != 2 || st.PublishedFor(KindBlacklist) != 1 {
		t.Errorf("published counts = %v", st.Published)
	}
}

func TestBusEventKinds(t *testing.T) {
	cases := []struct {
		e Event
		k Kind
	}{
		{WhitelistEvent{}, KindWhitelist},
		{BlacklistEvent{}, KindBlacklist},
		{UnpinEvent{}, KindUnpin},
		{IntervalEvent{}, KindInterval},
		{ModeSwitchEvent{}, KindModeSwitch},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if c.e.Kind() != c.k {
			t.Errorf("%T.Kind() = %v, want %v", c.e, c.e.Kind(), c.k)
		}
		if s := c.k.String(); seen[s] {
			t.Errorf("duplicate kind name %q", s)
		} else {
			seen[s] = true
		}
	}
}

// TestBusConcurrentPublish: several goroutines may publish control
// events concurrently; the bus must serialise them without loss (run
// under -race by the `make shards` job).
func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus()
	var n int
	b.Subscribe(KindModeSwitch, "count", func(Event) { n++ })
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Publish(b, ModeSwitchEvent{Shard: shard}, 0)
			}
		}(w)
	}
	wg.Wait()
	if n != workers*per {
		t.Errorf("delivered %d, want %d", n, workers*per)
	}
	if st := b.Stats(); st.PublishedFor(KindModeSwitch) != workers*per {
		t.Errorf("published %d, want %d", st.PublishedFor(KindModeSwitch), workers*per)
	}
}

func TestBusSubscribeValidation(t *testing.T) {
	b := NewBus()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil handler", func() { b.Subscribe(KindWhitelist, "x", nil) })
	mustPanic("bad kind", func() { b.Subscribe(Kind(200), "x", func(Event) {}) })
}
