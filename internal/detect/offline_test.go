package detect

import (
	"strings"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

func storeWith(records ...flowcache.Record) *host.FlowStore {
	fs := host.NewFlowStore(host.DefaultCostModel())
	for _, r := range records {
		fs.Ingest(r)
	}
	return fs
}

func okey(i int) packet.FlowKey {
	return packet.FiveTuple{
		SrcIP: packet.Addr(i + 1), DstIP: packet.Addr(i + 5000),
		SrcPort: uint16(40000 + i), DstPort: 80, Proto: packet.ProtoTCP,
	}.Canonical()
}

func TestHeavyHittersOffline(t *testing.T) {
	fs := storeWith(
		flowcache.Record{Key: okey(1), Pkts: 1000},
		flowcache.Record{Key: okey(2), Pkts: 50},
		flowcache.Record{Key: okey(3), Pkts: 500},
	)
	hh := HeavyHittersOffline(fs, 100)
	if len(hh) != 2 {
		t.Fatalf("hh = %+v", hh)
	}
	if hh[0].Count != 1000 || hh[1].Count != 500 {
		t.Errorf("not sorted descending: %+v", hh)
	}
}

// One host store evolving across two intervals, as the platform drives it:
// the log is cumulative, so a stalled flow stays in the later view with a
// change of zero instead of "disappearing".
func TestHeavyChangesOffline(t *testing.T) {
	kv := host.NewKVStore(nil)
	fs := storeWith(
		flowcache.Record{Key: okey(1), Pkts: 100},
		flowcache.Record{Key: okey(2), Pkts: 100},
		flowcache.Record{Key: okey(4), Pkts: 500},
	)
	if err := kv.FlushInterval(1, fs); err != nil {
		t.Fatal(err)
	}
	fs.Ingest(flowcache.Record{Key: okey(1), Pkts: 5})   // stable
	fs.Ingest(flowcache.Record{Key: okey(2), Pkts: 800}) // surge
	fs.Ingest(flowcache.Record{Key: okey(3), Pkts: 400}) // new
	// okey(4) stalls: no export this interval.
	if err := kv.FlushInterval(2, fs); err != nil {
		t.Fatal(err)
	}
	if hr, ok := kv.Get(2, okey(4)); !ok || hr.Pkts != 500 {
		t.Fatalf("stalled flow in the later interval = %+v %v, want its last value", hr, ok)
	}
	changes := HeavyChangesOffline(kv, 1, 2, 200)
	want := map[packet.FlowKey]bool{okey(2): true, okey(3): true}
	if len(changes) != len(want) {
		t.Fatalf("changes = %v", changes)
	}
	for _, k := range changes {
		if !want[k] {
			t.Errorf("unexpected change %v", k)
		}
	}
}

func TestCardinalityOffline(t *testing.T) {
	var recs []flowcache.Record
	for i := 0; i < 5000; i++ {
		recs = append(recs, flowcache.Record{Key: okey(i), Pkts: 1})
	}
	fs := storeWith(recs...)
	exact, est := CardinalityOffline(fs)
	if exact != 5000 {
		t.Fatalf("exact = %d", exact)
	}
	if est < 4500 || est > 5500 {
		t.Errorf("HLL estimate %.0f for 5000 flows", est)
	}
}

func TestFlowSizeDistOffline(t *testing.T) {
	fs := storeWith(
		flowcache.Record{Key: okey(1), Pkts: 5},
		flowcache.Record{Key: okey(2), Pkts: 50},
		flowcache.Record{Key: okey(3), Pkts: 50000},
	)
	dist := FlowSizeDistOffline(fs, 5)
	if dist[0] != 1 || dist[1] != 1 || dist[4] != 1 {
		t.Errorf("dist = %v", dist)
	}
}

func TestSlowlorisOffline(t *testing.T) {
	server := packet.MustParseAddr("10.1.0.80")
	attacker := packet.MustParseAddr("203.0.113.99")
	var recs []flowcache.Record
	// 40 stalling connections from the attacker.
	for i := 0; i < 40; i++ {
		k := packet.FiveTuple{SrcIP: attacker, DstIP: server, SrcPort: uint16(10000 + i), DstPort: 80, Proto: packet.ProtoTCP}.Canonical()
		recs = append(recs, flowcache.Record{Key: k, Pkts: 20, Bytes: 1500, FirstTs: 0, LastTs: 10e9})
	}
	// Plenty of healthy short connections elsewhere.
	for i := 0; i < 100; i++ {
		recs = append(recs, flowcache.Record{Key: okey(i), Pkts: 50, Bytes: 60000, FirstTs: 0, LastTs: 100e6})
	}
	fs := storeWith(recs...)
	alerts := SlowlorisOffline(fs, 10e9, 2e9, 40000, 30)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].Victim != server || alerts[0].Attacker != attacker {
		t.Errorf("alert = %+v", alerts[0])
	}
	// Healthy traffic alone must not alert.
	if extra := SlowlorisOffline(storeWith(recs[40:]...), 10e9, 2e9, 40000, 30); len(extra) != 0 {
		t.Errorf("false positives: %v", extra)
	}
}

func TestChainFansOutAndMerges(t *testing.T) {
	hooks := &hookRecorder{}
	a := NewBruteForce(BruteForceConfig{Service: 22, Psi: 1, Hooks: hooks})
	b := NewWorm(1, 0)
	ch := NewChain(a, b)
	if ch.Name() != "chain" || len(ch.Detectors()) != 2 {
		t.Fatalf("chain malformed")
	}
	// A packet that triggers both: SSH failure with a worm signature.
	p := packet.Packet{
		Ts: 1,
		Tuple: packet.FiveTuple{
			SrcIP: packet.MustParseAddr("203.0.113.1"), DstIP: packet.MustParseAddr("10.0.0.1"),
			SrcPort: 999, DstPort: 22, Proto: packet.ProtoTCP,
		},
		App: packet.AppInfo{AuthOutcome: packet.AuthFailure, PayloadSig: 77},
	}
	rec := &flowcache.Record{}
	r := ch.OnPacket(&p, rec, snic.Ctx{})
	if !r.ToHost {
		t.Error("merged reaction lost ToHost")
	}
	if r.ExtraCycles <= 0 {
		t.Error("merged reaction lost cycles")
	}
	ch.Tick(100)
	alerts := ch.Drain()
	var dets []string
	for _, al := range alerts {
		dets = append(dets, al.Detector)
		if al.String() == "" || !strings.Contains(al.String(), al.Detector) {
			t.Errorf("alert String() malformed: %q", al.String())
		}
	}
	if len(alerts) != 2 {
		t.Fatalf("alerts from chain = %v", dets)
	}
}

func TestNopHooks(t *testing.T) {
	var h NopHooks
	h.Unpin(okey(1))
	h.Whitelist(okey(1))
	h.Blacklist(packet.Addr(1)) // must not panic
}

func TestOutcomeAndVerdictStrings(t *testing.T) {
	if flowcache.PHit.String() == "" || flowcache.HostPunt.String() == "" {
		t.Error("outcome strings empty")
	}
}
