package core

import (
	"fmt"
	"strings"
	"testing"

	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/tier"
)

func wlKey() packet.FlowKey {
	return packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 22, Proto: packet.ProtoTCP}.Canonical()
}

// seedRecord inserts and pins one record so whitelist/unpin have a
// target.
func seedRecord(pl *Platform, k packet.FlowKey) {
	p := packet.Packet{Tuple: k.Tuple(), Size: 64}
	pl.Cache().Process(&p)
	pl.Cache().Pin(k)
}

// checkEventsGolden fails unless line is one of legacy_events.golden's: the
// end states the direct-call Whitelist / Blacklist left.
func checkEventsGolden(t *testing.T, line string) {
	t.Helper()
	if want := golden(t, "legacy_events.golden"); !strings.Contains(want, line+"\n") {
		t.Errorf("end state %q is not the direct-call one:\n%s", line, want)
	}
}

// TestWhitelistEventGolden: PR-1's whitelist behaviour — switch entry
// installed, cache record unpinned, in that order — must reproduce when
// the request travels the bus instead of direct calls.
func TestWhitelistEventGolden(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries()})
	k := wlKey()
	seedRecord(pl, k)
	pl.Whitelist(k)

	_, pinned, ok := pl.Cache().Lookup(k)
	checkEventsGolden(t, fmt.Sprintf("whitelist: switch_entries=%d resident=%v pinned=%v", pl.Switch().WhitelistCount(), ok, pinned))
	// The request used the bus, and with the right fanout.
	if got := pl.Bus().Stats().PublishedFor(tier.KindWhitelist); got != 1 {
		t.Errorf("whitelist events = %d, want 1", got)
	}
	// Delivery order is the direct-call order: switch first, then unpin.
	subs := pl.Bus().Subscribers(tier.KindWhitelist)
	if len(subs) != 2 || subs[0] != "switch-program" || subs[1] != "cache-unpin" {
		t.Errorf("whitelist subscriber order = %v", subs)
	}
}

// TestBlacklistEventGolden: blacklist via the bus installs the same
// switch drop rule as the direct call.
func TestBlacklistEventGolden(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries()})
	a := packet.MustParseAddr("203.0.113.9")
	pl.Blacklist(a)
	checkEventsGolden(t, fmt.Sprintf("blacklist: blacklisted=%v", pl.Switch().Blacklisted(a)))
	if got := pl.Bus().Stats().PublishedFor(tier.KindBlacklist); got != 1 {
		t.Errorf("blacklist events = %d, want 1", got)
	}
}

// TestUnpinEvent: the hook-driven unpin travels the bus too.
func TestUnpinEvent(t *testing.T) {
	pl := New(Config{})
	k := wlKey()
	seedRecord(pl, k)
	pl.Unpin(k)
	_, pinned, ok := pl.Cache().Lookup(k)
	if !ok || pinned {
		t.Errorf("unpin event did not release the record (ok=%v)", ok)
	}
	if got := pl.Bus().Stats().PublishedFor(tier.KindUnpin); got != 1 {
		t.Errorf("unpin events = %d, want 1", got)
	}
}

// scriptedDetector fires one fixed reaction on the first packet.
type scriptedDetector struct {
	react detect.Reaction
	fired bool
}

func (d *scriptedDetector) Name() string { return "scripted" }
func (d *scriptedDetector) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	if d.fired {
		return detect.Reaction{}
	}
	d.fired = true
	return d.react
}
func (d *scriptedDetector) Tick(int64)            {}
func (d *scriptedDetector) Drain() []detect.Alert { return nil }

// TestDetectorReactionsBecomeEvents: in-datapath detector verdicts leave
// the sNIC tier as bus events tagged with their origin.
func TestDetectorReactionsBecomeEvents(t *testing.T) {
	det := &scriptedDetector{react: detect.Reaction{Whitelist: true, BlacklistSrc: true}}
	pl := New(Config{
		EnableSwitch: true, Queries: sshQueries(),
		Detectors: []detect.Detector{det},
	})
	var origins []string
	pl.Bus().Subscribe(tier.KindWhitelist, "test-observer", func(e tier.Event) {
		origins = append(origins, e.(tier.WhitelistEvent).Origin)
	})
	src := packet.MustParseAddr("198.51.100.1")
	p := packet.Packet{
		Ts: 1e6,
		Tuple: packet.FiveTuple{SrcIP: src, DstIP: 2, SrcPort: 40000, DstPort: 8080,
			Proto: packet.ProtoTCP},
		Size: 64,
	}
	// Drive the sNIC tier directly, on a context prepped as consume leaves
	// it: with the switch enabled the wire side would fast-path this
	// unsteered packet, and the point here is tierHandler's event
	// publication.
	pkts := []packet.Packet{p}
	prepIdentity(pkts, pl.ctxs)
	pl.cur = &pl.ctxs[0]
	pl.tierHandler(&pkts[0], snic.Ctx{})
	if !pl.Switch().Blacklisted(src) {
		t.Error("detector blacklist reaction never reached the switch")
	}
	if pl.Switch().WhitelistCount() != 1 {
		t.Error("detector whitelist reaction never reached the switch")
	}
	if len(origins) != 1 || origins[0] != "detector" {
		t.Errorf("whitelist origins = %v, want [detector]", origins)
	}
}

// TestIntervalEventSequence: interval events carry 1-based sequence
// numbers matching the interval counter.
func TestIntervalEventSequence(t *testing.T) {
	pl := New(Config{IntervalNs: 10e6})
	var seqs []uint64
	pl.Bus().Subscribe(tier.KindInterval, "test-observer", func(e tier.Event) {
		seqs = append(seqs, e.(tier.IntervalEvent).Seq)
	})
	var pkts []packet.Packet
	for i := 0; i < 50; i++ {
		pkts = append(pkts, packet.Packet{
			Ts: int64(i) * 1e6,
			Tuple: packet.FiveTuple{SrcIP: packet.Addr(i%5 + 1), DstIP: 99,
				SrcPort: uint16(1000 + i), DstPort: 443, Proto: packet.ProtoTCP},
			Size: 64,
		})
	}
	rep := pl.Run(packet.StreamOf(pkts))
	if len(seqs) == 0 {
		t.Fatal("no interval events")
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("interval seq = %v, want 1..n contiguous", seqs)
		}
	}
	if rep.Counts.Intervals != uint64(len(seqs)) {
		t.Errorf("Counts.Intervals = %d, events = %d", rep.Counts.Intervals, len(seqs))
	}
}
