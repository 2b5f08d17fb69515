package smartwatch_test

import (
	"bytes"
	"fmt"
	"log"

	"smartwatch"
)

// ExampleNew shows the minimal monitoring pipeline: a platform with one
// detector, fed a deterministic synthetic workload. It is the README's
// quick start.
func ExampleNew() {
	det := smartwatch.NewPortScanDetector(smartwatch.PortScanDetectorConfig{ResponseTimeoutNs: 20e6})
	platform := smartwatch.New(smartwatch.Config{
		IntervalNs: 50e6,
		Detectors:  []smartwatch.Detector{det},
	})
	scan := smartwatch.PortScanTraffic(smartwatch.PortScanTrafficConfig{
		Seed: 1, Targets: 4, PortsPerTarget: 10, ScanDelay: 2e6, SilentFraction: 0.9,
	})
	report, err := platform.Run(scan.Stream())
	if err != nil {
		log.Fatal(err)
	}
	scanner := scan.Truth().Attackers[0]
	fmt.Printf("packets=%d scanner-flagged=%v\n", report.Counts.Total, det.Flagged(scanner))
	// Output: packets=45 scanner-flagged=true
}

// Example_quickstart assembles a platform, feeds it a synthetic backbone
// trace with a hidden port scan, and reads the modelled sNIC throughput,
// the FlowCache hit rate and the alerts.
func Example_quickstart() {
	scanDet := smartwatch.NewPortScanDetector(smartwatch.PortScanDetectorConfig{
		ResponseTimeoutNs: 50e6,
	})
	platform := smartwatch.New(smartwatch.Config{
		IntervalNs: 50e6,
		Detectors:  []smartwatch.Detector{scanDet},
	})

	// 0.4 s of flows firing at 2 M/s. An elephant fires a burst of about
	// four packets, so the trace holds about 2.0 M packets, not 0.8 M.
	background := smartwatch.NewWorkload(smartwatch.WorkloadConfig{
		Seed: 42, Flows: 2000, PacketRate: 2e6, Duration: 400e6,
	})
	scan := smartwatch.PortScanTraffic(smartwatch.PortScanTrafficConfig{
		Seed: 7, Targets: 6, PortsPerTarget: 12, ScanDelay: 3e6,
	})
	report, err := platform.Run(smartwatch.MergeStreams(background.Stream(), scan.Stream()))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("processed %d packets (%.2f Mpps modelled, p99 latency %.0f ns)\n",
		report.Counts.Total, report.SNIC.AchievedMpps, report.SNIC.Latency.Percentile(99))
	fmt.Printf("flowcache hit rate: %.3f\n", report.Cache.HitRate())
	for _, alert := range report.Alerts {
		fmt.Println("ALERT:", alert)
	}
	scanner := scan.Truth().Attackers[0]
	fmt.Printf("scanner %s flagged: %v\n", scanner, scanDet.Flagged(scanner))
	// Output:
	// processed 2007122 packets (5.02 Mpps modelled, p99 latency 2288 ns)
	// flowcache hit rate: 0.999
	// ALERT: [portscan] t=7571999ns attacker=203.0.113.66 victim=0.0.0.0 TRW verdict scanner after 4 attempts
	// scanner 203.0.113.66 flagged: true
}

// ExampleNewBruteForceDetector is the paper's cooperative pipeline
// (§5.1.1). The P4 switch runs a coarse "SSH connection attempts per /16"
// query and steers only the suspicious subset to the sNIC. The brute-force
// detector pins new SSH sessions and asks the host for authentication
// outcomes. It whitelists successful clients at the switch, so their later
// traffic never detours again (the latency win of Fig. 8a), and blacklists
// guessing hosts. The host flow log is persisted and read back.
func ExampleNewBruteForceDetector() {
	sshDet := smartwatch.NewBruteForceDetector(smartwatch.BruteForceDetectorConfig{
		Service: 22, Psi: 3,
	})
	var aof bytes.Buffer
	platform := smartwatch.New(smartwatch.Config{
		EnableSwitch: true,
		Queries: []smartwatch.SwitchQuery{{
			Name:   "ssh-conns",
			Filter: smartwatch.Predicate{Proto: 6, ServicePort: 22},
			Key:    smartwatch.KeyDstIP, PrefixBits: 16,
			Reduce: smartwatch.CountSYN, Threshold: 4, Slots: 1 << 12,
		}},
		IntervalNs: 50e6,
		Detectors:  []smartwatch.Detector{sshDet},
		FlowLogAOF: &aof,
	})

	background := smartwatch.NewWorkload(smartwatch.WorkloadConfig{
		Seed: 3, Flows: 3000, PacketRate: 2e6, Duration: 600e6,
	})
	attack := smartwatch.BruteForceTraffic(smartwatch.BruteForceTrafficConfig{
		Seed: 9, Attackers: 4, AttemptsPerAttacker: 8, AttemptGap: 40e6,
		Target:       smartwatch.MustParseAddr("10.1.0.22"),
		LegitClients: 5, LegitDataPackets: 200,
	})
	report, err := platform.Run(smartwatch.MergeStreams(background.Stream(), attack.Stream()))
	if err != nil {
		log.Fatal(err)
	}

	total := float64(report.Counts.Total)
	fmt.Printf("switch fast path:   %6.2f%% of packets never touch the sNIC\n",
		float64(report.Counts.ForwardedDirect)/total*100)
	fmt.Printf("steered to sNIC:    %6.2f%%\n", float64(report.Counts.ToSNIC)/total*100)
	fmt.Printf("escalated to host:  %6.2f%%\n", float64(report.Counts.ToHost)/total*100)
	fmt.Printf("whitelisted flows:  %d\n", platform.Switch().WhitelistCount())
	attackers := attack.Truth().Attackers
	flagged, blocked := 0, 0
	for _, a := range attackers {
		if sshDet.Flagged(a) {
			flagged++
		}
		if platform.Switch().Blacklisted(a) {
			blocked++
		}
	}
	fmt.Printf("attackers flagged:  %d/%d, blacklisted at the switch: %d/%d\n",
		flagged, len(attackers), blocked, len(attackers))
	for _, alert := range report.Alerts {
		fmt.Println("ALERT:", alert)
	}
	intervals, err := smartwatch.ReadFlowLog(&aof)
	if err != nil {
		log.Fatal(err)
	}
	records := 0
	for _, recs := range intervals {
		records += len(recs)
	}
	fmt.Printf("flow log read back: %d flow records\n", records)
	// Output:
	// switch fast path:    95.50% of packets never touch the sNIC
	// steered to sNIC:      4.48%
	// escalated to host:    4.48%
	// whitelisted flows:  5
	// attackers flagged:  4/4, blacklisted at the switch: 4/4
	// ALERT: [ssh-bruteforce] t=131000000ns attacker=203.150.0.2 victim=10.1.0.22 3 failed logins within window (psi=3)
	// ALERT: [ssh-bruteforce] t=134000000ns attacker=203.189.0.3 victim=10.1.0.22 3 failed logins within window (psi=3)
	// ALERT: [ssh-bruteforce] t=165000000ns attacker=203.87.0.0 victim=10.1.0.22 3 failed logins within window (psi=3)
	// ALERT: [ssh-bruteforce] t=168000000ns attacker=203.95.0.1 victim=10.1.0.22 3 failed logins within window (psi=3)
	// flow log read back: 436 flow records
}

// ExampleNewPortScanDetector contrasts stateful scan detection with a
// volumetric threshold (§5.1.3, Fig. 8c). A paranoid scanner probes one
// port every 15 virtual seconds on average, so no per-interval SYN count
// separates it from a benign client. The FlowCache tracks every handshake outcome, and
// the TRW hypothesis test converges however slowly the probes arrive.
func ExampleNewPortScanDetector() {
	const intervalNs = 1e9
	det := smartwatch.NewPortScanDetector(smartwatch.PortScanDetectorConfig{
		ResponseTimeoutNs: 2e9,
		TRW:               smartwatch.TRWConfig{Theta0: 0.8, Theta1: 0.2, Alpha: 0.01, Beta: 0.01},
	})
	platform := smartwatch.New(smartwatch.Config{
		IntervalNs: intervalNs,
		Detectors:  []smartwatch.Detector{det},
	})

	// 40 probes with exponential gaps of mean 15 s, about ten virtual
	// minutes, in light background traffic: 500 flows firing 1,000 times a
	// second between them.
	scan := smartwatch.PortScanTraffic(smartwatch.PortScanTrafficConfig{
		Seed: 4, Targets: 4, PortsPerTarget: 10, ScanDelay: 15e9,
		OpenFraction: 0.02, SilentFraction: 0.3,
	})
	background := smartwatch.NewWorkload(smartwatch.WorkloadConfig{
		Seed: 5, Flows: 500, PacketRate: 1e3, Duration: 650e9,
	})

	// The volumetric strawman: the scanner's most SYNs in one interval.
	scanner := scan.Truth().Attackers[0]
	var scanPkts []smartwatch.Packet
	synsIn := map[int64]int{}
	maxSYNs := 0
	for p := range scan.Stream() {
		scanPkts = append(scanPkts, p)
		if p.Tuple.SrcIP == scanner && p.Flags.String() == "SYN" {
			synsIn[p.Ts/intervalNs]++
			maxSYNs = max(maxSYNs, synsIn[p.Ts/intervalNs])
		}
	}
	report, err := platform.Run(smartwatch.MergeStreams(background.Stream(), smartwatch.StreamOf(scanPkts)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trace: %d packets; scanner %s sent its SYNs in %d intervals\n",
		report.Counts.Total, scanner, len(synsIn))
	fmt.Printf("volumetric detector: at most %d SYNs per interval, threshold 10, detected=%v\n",
		maxSYNs, maxSYNs >= 10)
	fmt.Printf("TRW detector: detected=%v\n", det.Flagged(scanner))
	for _, alert := range report.Alerts {
		fmt.Println("ALERT:", alert)
	}
	// Output:
	// trace: 1832662 packets; scanner 203.0.113.66 sent its SYNs in 39 intervals
	// volumetric detector: at most 2 SYNs per interval, threshold 10, detected=false
	// TRW detector: detected=true
	// ALERT: [portscan] t=35485374616ns attacker=203.0.113.66 victim=0.0.0.0 TRW verdict scanner after 4 attempts
}

// ExampleNewCovertTimingDetector is the §5.2.1 pipeline. Flows whose
// inter-packet delays encode hidden bits are separated from benign traffic
// by a two-sample Kolmogorov–Smirnov test over 1 µs IPD bins. These are
// the statistics the sNIC's micro-engine computes when its timer fires,
// with no switch control-plane involvement.
func ExampleNewCovertTimingDetector() {
	// 10% of flows modulate their IPDs. The symbols sit inside the benign
	// delay range, so only fine-grained bins reveal the bimodal shape.
	channel := smartwatch.CovertTimingTraffic(smartwatch.CovertTimingTrafficConfig{
		Seed: 11, Flows: 100, ModulatedFraction: 0.1, PacketsPerFlow: 150,
		Delay0: 20e3, Delay1: 40e3, JitterNs: 8e3, MeanSpread: 0.2,
	})
	det := smartwatch.NewCovertTimingDetector(smartwatch.CovertTimingDetectorConfig{
		BinNs: 1e3, Bins: 100,
		BenignIPDs: channel.BenignIPDSample(5000), // training data
		DThreshold: 0.25, MinSamples: 80,
	})
	det.ProgramAll() // standalone mode: fine bins for every flow

	platform := smartwatch.New(smartwatch.Config{
		IntervalNs: 10e6,
		Detectors:  []smartwatch.Detector{det},
	})
	report, err := platform.Run(channel.Stream())
	if err != nil {
		log.Fatal(err)
	}

	truth := map[smartwatch.FlowKey]bool{}
	for _, k := range channel.Truth().Flows {
		truth[k] = true
	}
	var tp, fp, fn int
	for k, positive := range det.Verdicts() {
		switch {
		case positive && truth[k]:
			tp++
		case positive && !truth[k]:
			fp++
		case !positive && truth[k]:
			fn++
		}
	}
	fmt.Printf("flows analysed: %d (%d modulated in ground truth)\n", len(det.Verdicts()), len(truth))
	fmt.Printf("KS verdicts: %d true positives, %d false positives, %d missed\n", tp, fp, fn)
	fmt.Printf("per-flow bin memory on sNIC: %d KB\n", det.MemoryBytes()/1024)
	for _, alert := range report.Alerts {
		fmt.Println("ALERT:", alert)
	}
	// Output:
	// flows analysed: 100 (10 modulated in ground truth)
	// KS verdicts: 9 true positives, 4 false positives, 1 missed
	// per-flow bin memory on sNIC: 39 KB
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.0:443 <> 100.70.0.0:20000 tcp IPD distribution deviates (KS D=0.263 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.1:443 <> 100.70.0.1:20001 tcp IPD distribution deviates (KS D=0.285 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.2:443 <> 100.70.0.2:20002 tcp IPD distribution deviates (KS D=0.314 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.3:443 <> 100.70.0.3:20003 tcp IPD distribution deviates (KS D=0.314 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.5:443 <> 100.70.0.5:20005 tcp IPD distribution deviates (KS D=0.333 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.6:443 <> 100.70.0.6:20006 tcp IPD distribution deviates (KS D=0.285 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.7:443 <> 100.70.0.7:20007 tcp IPD distribution deviates (KS D=0.310 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.8:443 <> 100.70.0.8:20008 tcp IPD distribution deviates (KS D=0.250 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.9:443 <> 100.70.0.9:20009 tcp IPD distribution deviates (KS D=0.273 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.67:443 <> 100.70.0.67:20067 tcp IPD distribution deviates (KS D=0.270 > 0.250)
	// ALERT: [covert-timing] t=3000000ns flow=10.4.0.70:443 <> 100.70.0.70:20070 tcp IPD distribution deviates (KS D=0.334 > 0.250)
	// ALERT: [covert-timing] t=4000000ns flow=10.4.0.27:443 <> 100.70.0.27:20027 tcp IPD distribution deviates (KS D=0.257 > 0.250)
	// ALERT: [covert-timing] t=4000000ns flow=10.4.0.99:443 <> 100.70.0.99:20099 tcp IPD distribution deviates (KS D=0.261 > 0.250)
}

// ExampleNewFingerprintDetector is the §5.2.2 pipeline: a flow's
// packet-length distribution identifies which encrypted, proxied site a
// client visits. A naive Bayes classifier is trained on half the flows per
// site, and the detector classifies the rest from the PLD bins the sNIC
// collects.
func ExampleNewFingerprintDetector() {
	const bins = 32
	traffic := smartwatch.FingerprintTraffic(smartwatch.FingerprintTrafficConfig{
		Seed: 13, Sites: 10, FlowsPerSite: 10, PacketsPerFlow: 120, Bins: bins,
	})
	sites := traffic.Sites()

	// Split flows per site: even rounds train, odd rounds test.
	isTrain := map[smartwatch.FlowKey]bool{}
	siteOf := map[smartwatch.FlowKey]string{}
	for i := 0; i < traffic.NumFlows(); i++ {
		k := traffic.FlowTuple(i).Canonical()
		siteOf[k] = sites[traffic.FlowSite(i)]
		isTrain[k] = (i/10)%2 == 0
	}

	// Aggregate training PLDs per site.
	training := map[string][]uint64{}
	for _, s := range sites {
		training[s] = make([]uint64, bins)
	}
	for p := range traffic.Stream() {
		if isTrain[p.Key()] {
			bin := min(int(p.Size)*bins/1500, bins-1)
			training[siteOf[p.Key()]][bin]++
		}
	}

	det, err := smartwatch.NewFingerprintDetector(bins, 1500, 40, training, []string{"site-00"})
	if err != nil {
		log.Fatal(err)
	}
	for k, train := range isTrain {
		if !train {
			det.Program(k) // only test flows collect fine-grained bins
		}
	}
	platform := smartwatch.New(smartwatch.Config{
		IntervalNs: 20e6,
		Detectors:  []smartwatch.Detector{det},
	})
	report, err := platform.Run(traffic.Stream())
	if err != nil {
		log.Fatal(err)
	}

	correct, total := 0, 0
	for k, label := range det.Classifications() {
		total++
		if label == siteOf[k] {
			correct++
		}
	}
	fmt.Printf("test flows classified: %d, accuracy %.1f%%\n", total, float64(correct)/float64(total)*100)
	for _, alert := range report.Alerts {
		fmt.Println("ALERT (monitored site visited):", alert)
	}
	// Output:
	// test flows classified: 50, accuracy 100.0%
	// ALERT (monitored site visited): [website-fingerprint] t=2000000ns flow=10.5.0.0:443 <> 100.80.0.10:15010 tcp flow matches monitored site "site-00"
	// ALERT (monitored site visited): [website-fingerprint] t=4000000ns flow=10.5.0.0:443 <> 100.80.0.30:15030 tcp flow matches monitored site "site-00"
	// ALERT (monitored site visited): [website-fingerprint] t=4000000ns flow=10.5.0.0:443 <> 100.80.0.50:15050 tcp flow matches monitored site "site-00"
	// ALERT (monitored site visited): [website-fingerprint] t=6000000ns flow=10.5.0.0:443 <> 100.80.0.70:15070 tcp flow matches monitored site "site-00"
	// ALERT (monitored site visited): [website-fingerprint] t=6000000ns flow=10.5.0.0:443 <> 100.80.0.90:15090 tcp flow matches monitored site "site-00"
}

// ExampleNewFlowCache uses the FlowCache standalone: per-packet flow-state
// tracking with pinning, exactly as a custom sNIC application would.
func ExampleNewFlowCache() {
	fc := smartwatch.NewFlowCache(smartwatch.DefaultFlowCacheConfig(8))
	p := smartwatch.Packet{
		Tuple: smartwatch.FiveTuple{
			SrcIP: smartwatch.MustParseAddr("10.0.0.1"), DstIP: smartwatch.MustParseAddr("10.0.0.2"),
			SrcPort: 1234, DstPort: 22, Proto: 6,
		},
		Size: 64,
	}
	fc.Process(&p)
	fc.Pin(p.Key()) // survive eviction until the auth outcome is known
	reverse := p.Reverse()
	rec, res := fc.Process(&reverse) // both directions share one record
	fmt.Printf("pkts=%d pinned=%v mode=%v\n", rec.Pkts, res.Pinned, fc.Mode())
	// Output: pkts=2 pinned=true mode=general
}

// ExampleCAIDAWorkload generates a reproducible backbone-like background
// trace; identical seeds replay identical packets.
func ExampleCAIDAWorkload() {
	cfg := smartwatch.CAIDAWorkload(2018).Config()
	cfg.Duration = 1e6 // 1 ms of virtual time
	w := smartwatch.NewWorkload(cfg)
	a, b := 0, 0
	for range w.Stream() {
		a++
	}
	for range w.Stream() {
		b++
	}
	fmt.Printf("replays-identical=%v\n", a == b && a > 0)
	// Output: replays-identical=true
}
