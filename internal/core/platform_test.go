package core

import (
	"testing"

	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

func sshQueries() []p4switch.Query {
	return []p4switch.Query{{
		Name:   "ssh-conns",
		Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: 22},
		Key:    p4switch.KeyDstIP, PrefixBits: 16,
		Reduce: p4switch.CountSYN, Threshold: 3, Slots: 1 << 12,
	}}
}

func TestPlatformStandaloneRunsAllTraffic(t *testing.T) {
	pl := New(Config{IntervalNs: 50e6})
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 1, Flows: 200, PacketRate: 1e6, Duration: 2e8})
	rep := pl.Run(w.Stream())
	if rep.Counts.Total == 0 {
		t.Fatal("no packets")
	}
	if rep.Counts.ToSNIC != rep.Counts.Total {
		t.Errorf("standalone platform must send all %d packets to the sNIC, got %d",
			rep.Counts.Total, rep.Counts.ToSNIC)
	}
	if rep.Counts.Intervals == 0 {
		t.Error("no intervals completed")
	}
	if rep.Cache.Processed() == 0 {
		t.Error("FlowCache saw nothing")
	}
	if len(pl.KV().Intervals()) == 0 {
		t.Error("flow log never flushed")
	}
}

func TestPlatformSwitchSteersOnlySuspicious(t *testing.T) {
	det := detect.NewBruteForce(detect.BruteForceConfig{Service: 22, Psi: 3})
	pl := New(Config{
		EnableSwitch: true,
		Queries:      sshQueries(),
		IntervalNs:   20e6,
		Detectors:    []detect.Detector{det},
	})
	background := trace.NewWorkload(trace.WorkloadConfig{Seed: 2, Flows: 500, PacketRate: 2e6, Duration: 4e8, UDPFraction: 0.1})
	attack := trace.BruteForce(trace.BruteForceConfig{
		Seed: 3, Attackers: 3, AttemptsPerAttacker: 8, AttemptGap: 20e6,
		Target: packet.MustParseAddr("10.1.0.22"),
	})
	mixed := pcap.Merge(background.Stream(), attack.Stream())
	rep := pl.Run(mixed)

	if rep.Counts.ForwardedDirect == 0 {
		t.Fatal("switch never fast-pathed benign traffic")
	}
	if rep.Counts.ToSNIC == 0 {
		t.Fatal("switch never steered anything")
	}
	frac := float64(rep.Counts.ToSNIC) / float64(rep.Counts.Total)
	if frac > 0.5 {
		t.Errorf("steered fraction %.2f too high: the switch should absorb the bulk", frac)
	}
	// The brute forcers must still be caught despite the switch filter.
	truth := attack.Truth()
	flagged := 0
	for _, a := range truth.Attackers {
		if det.Flagged(a) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Errorf("no attackers flagged through the cooperative path")
	}
}

func TestPlatformBlacklistDropsAtSwitch(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries(), IntervalNs: 20e6})
	attacker := packet.MustParseAddr("203.0.113.7")
	pl.Blacklist(attacker)
	var pkts []packet.Packet
	for i := 0; i < 10; i++ {
		pkts = append(pkts, packet.Packet{
			Ts: int64(i) * 1e6,
			Tuple: packet.FiveTuple{
				SrcIP: attacker, DstIP: packet.MustParseAddr("10.0.0.1"),
				SrcPort: 999, DstPort: 22, Proto: packet.ProtoTCP},
			Size: 64,
		})
	}
	rep := pl.Run(packet.StreamOf(pkts))
	if rep.Counts.DroppedAtSwitch != 10 {
		t.Errorf("dropped = %d, want 10", rep.Counts.DroppedAtSwitch)
	}
}

func TestPlatformHooks(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries()})
	k := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 22, Proto: packet.ProtoTCP}.Canonical()
	// Insert a record so pin/unpin have a target.
	p := k.Tuple()
	pk := packet.Packet{Tuple: p, Size: 64}
	pl.Cache().Process(&pk)
	pl.Cache().Pin(k)
	pl.Whitelist(k)
	if pl.Switch().WhitelistCount() != 1 {
		t.Error("whitelist hook did not reach the switch")
	}
	_, pinned, ok := pl.Cache().Lookup(k)
	if !ok || pinned {
		t.Error("whitelist hook did not unpin")
	}
	pl.Blacklist(packet.Addr(9))
	if !pl.Switch().Blacklisted(packet.Addr(9)) {
		t.Error("blacklist hook did not reach the switch")
	}
}

func TestWhitelistTopK(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries()})
	// Insert flows with varying weights.
	for i := 0; i < 20; i++ {
		tuple := packet.FiveTuple{SrcIP: packet.Addr(i + 1), DstIP: 99, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
		for j := 0; j <= i; j++ {
			p := packet.Packet{Ts: int64(j), Tuple: tuple, Size: 100}
			pl.Cache().Process(&p)
		}
	}
	bad := packet.FiveTuple{SrcIP: 19 + 1, DstIP: 99, SrcPort: 19, DstPort: 80, Proto: packet.ProtoTCP}.Canonical()
	n := pl.WhitelistTopK(5, func(k packet.FlowKey) bool { return k == bad })
	if n != 5 {
		t.Fatalf("installed %d, want 5", n)
	}
	if pl.Switch().WhitelistCount() != 5 {
		t.Errorf("switch whitelist = %d", pl.Switch().WhitelistCount())
	}
}

func TestPlatformModeSwitchUnderLoad(t *testing.T) {
	cfg := Config{
		IntervalNs: 10e6,
		Controller: flowcache.ControllerConfig{Alpha: 0.75, WindowNs: 1e5, EtaHigh: 20e6, EtaLow: 10e6},
	}
	pl := New(cfg)
	// 35 Mpps offered: must trigger Lite mode.
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 4, Flows: 5000, PacketRate: 35e6, Duration: 3e7})
	rep := pl.Run(w.Stream())
	if rep.Switchovers == 0 {
		t.Error("no mode switchovers at 35 Mpps")
	}
	if pl.Cache().Mode() != flowcache.Lite {
		t.Errorf("mode = %v at sustained 35 Mpps, want lite", pl.Cache().Mode())
	}
}

func TestPlatformSequentialRuns(t *testing.T) {
	pl := New(Config{IntervalNs: 10e6})
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 5, Flows: 100, PacketRate: 1e6, Duration: 5e7})
	r1 := pl.Run(w.Stream())
	r2 := pl.Run(pcap.Shift(w.Stream(), 5e7))
	if r2.Counts.Total != 2*r1.Counts.Total {
		t.Errorf("state must persist across runs: %d then %d", r1.Counts.Total, r2.Counts.Total)
	}
}

// TestLosslessFlowLogging verifies the platform-level conservation claim
// behind §5.3.1: every packet the sNIC processed is accounted for in the
// final flow-log flush (evicted epochs + resident snapshot), minus only
// the host punts that never got a record.
func TestLosslessFlowLogging(t *testing.T) {
	pl := New(Config{IntervalNs: 25e6})
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 8, Flows: 800, PacketRate: 2e6, Duration: 3e8})
	rep := pl.Run(w.Stream())
	if rep.SNIC.Dropped != 0 {
		t.Fatalf("datapath dropped %d packets at this offered rate", rep.SNIC.Dropped)
	}
	intervals := pl.KV().Intervals()
	if len(intervals) == 0 {
		t.Fatal("no flow-log intervals")
	}
	final := intervals[len(intervals)-1]
	var logged uint64
	pl.KV().Scan(final, func(hr host.HostRecord) bool {
		logged += hr.Pkts
		return true
	})
	accounted := logged + rep.Cache.HostPunts
	if accounted != rep.Cache.Processed() {
		t.Errorf("lossless logging violated: logged %d + punts %d != processed %d",
			logged, rep.Cache.HostPunts, rep.Cache.Processed())
	}
}

// TestRingOverflowAccountedNotSilent injects a host stall (tiny eviction
// rings, long intervals) and verifies the loss is *visible*: RingDrops are
// counted and the flow-log totals fall short by an amount the operator can
// alarm on — never silent corruption.
func TestRingOverflowAccountedNotSilent(t *testing.T) {
	cfg := Config{IntervalNs: 1e9} // host drains rarely
	cfg.Cache = flowcache.DefaultConfig(4)
	cfg.Cache.Rings, cfg.Cache.RingEntries = 1, 8 // nearly no buffering
	pl := New(cfg)
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 9, Flows: 5000, PacketRate: 2e6, Duration: 3e8})
	rep := pl.Run(w.Stream())
	if rep.Cache.RingDrops == 0 {
		t.Fatal("tiny rings under churn must overflow")
	}
	intervals := pl.KV().Intervals()
	final := intervals[len(intervals)-1]
	var logged uint64
	pl.KV().Scan(final, func(hr host.HostRecord) bool {
		logged += hr.Pkts
		return true
	})
	missing := rep.Cache.Processed() - logged - rep.Cache.HostPunts
	if missing == 0 {
		t.Error("dropped records should surface as a flow-log shortfall")
	}
	// The shortfall is bounded by what the drop counter admits to (each
	// dropped record carries at least one packet).
	if missing < rep.Cache.RingDrops {
		t.Errorf("shortfall %d smaller than %d dropped records?", missing, rep.Cache.RingDrops)
	}
}

// TestNewRejectsDuplicateQueryNames: a query set the switch refuses —
// here two queries of one name — panics in New like any other.
func TestNewRejectsDuplicateQueryNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted two queries named ssh-conns")
		}
	}()
	New(Config{EnableSwitch: true, Queries: append(sshQueries(), sshQueries()...)})
}
