package smartwatch_test

// End-to-end integration: generate a mixed trace, persist it as a pcap
// file, read it back (the tracegen -> smartwatch CLI pipeline), run the
// full cooperative platform with an AOF-backed flow log, then analyse the
// persisted log offline — the complete lifecycle a deployment exercises.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"smartwatch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
)

func TestEndToEndPcapPlatformFlowLog(t *testing.T) {
	// 1. Build the trace: background + brute force, truncated to 64 B.
	background := smartwatch.NewWorkload(smartwatch.WorkloadConfig{
		Seed: 21, Flows: 800, PacketRate: 1e6, Duration: 4e8,
	})
	attack := smartwatch.BruteForceTraffic(smartwatch.BruteForceTrafficConfig{
		Seed: 22, Attackers: 3, AttemptsPerAttacker: 6, AttemptGap: 30e6,
		Target: smartwatch.MustParseAddr("10.1.0.22"), LegitClients: 2,
	})
	mixed := smartwatch.MergeStreams(background.Stream(), attack.Stream())

	// 2. Persist as pcap with metadata TLVs (what cmd/tracegen does).
	path := filepath.Join(t.TempDir(), "mix.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pcap.NewWriter(f, pcap.WriterConfig{Encode: packet.EncodeOptions{EmbedMeta: true}})
	if err := pcap.WriteStream(w, mixed); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	written := w.Count()
	if written == 0 {
		t.Fatal("empty trace")
	}

	// 3. Read it back and run the platform with an AOF-backed flow log.
	src, err := pcap.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var aof bytes.Buffer
	det := smartwatch.NewBruteForceDetector(smartwatch.BruteForceDetectorConfig{Service: 22, Psi: 3})
	pl := smartwatch.New(smartwatch.Config{
		EnableSwitch: true,
		Queries: []smartwatch.SwitchQuery{{
			Name:   "ssh",
			Filter: smartwatch.Predicate{Proto: 6, ServicePort: 22},
			Key:    smartwatch.KeyDstIP, PrefixBits: 16,
			Reduce: smartwatch.CountSYN, Threshold: 3, Slots: 1 << 12,
		}},
		IntervalNs: 50e6,
		Detectors:  []smartwatch.Detector{det},
		KVLog:      smartwatch.NewFlowLog(&aof),
	})
	rep := pl.Run(src.Stream())

	if rep.Counts.Total != uint64(written) {
		t.Errorf("platform saw %d packets, wrote %d", rep.Counts.Total, written)
	}
	if rep.Counts.ForwardedDirect == 0 || rep.Counts.ToSNIC == 0 {
		t.Errorf("cooperative split broken: %+v", rep.Counts)
	}
	// Attack detection survived the pcap round trip (metadata TLVs intact).
	flagged := 0
	for _, a := range attack.Truth().Attackers {
		if det.Flagged(a) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("no attackers flagged after pcap round trip")
	}

	// 4. Offline forensics over the persisted flow log.
	intervals, err := smartwatch.ReadFlowLog(&aof)
	if err != nil {
		t.Fatal(err)
	}
	if len(intervals) == 0 {
		t.Fatal("flow log empty")
	}
	totalRecords := 0
	for _, recs := range intervals {
		totalRecords += len(recs)
		for _, hr := range recs {
			if hr.Pkts == 0 {
				t.Fatalf("zero-count record in log: %+v", hr)
			}
		}
	}
	if totalRecords == 0 {
		t.Fatal("no flow records persisted")
	}
}
