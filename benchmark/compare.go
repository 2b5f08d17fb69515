package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Verdicts of one (metric, workload) pairing.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// decide compares a candidate's spread of one metric with the baseline's.
// A regression needs both: the median worse by more than the committed
// bound, and the quartile ranges apart. When either side's own spread is
// wider than the bound the pairing cannot be called unchanged.
func decide(d metricDef, base, cand summary) (verdict string, worse float64) {
	if base.Median == 0 {
		if cand.Median == 0 {
			return verdictUnchanged, 0
		}
		return verdictUnresolved, 0
	}
	worse = (cand.Median - base.Median) / base.Median
	apartWorse, apartBetter := cand.Q1 > base.Q3, cand.Q3 < base.Q1
	if d.better == "higher" {
		worse = -worse
		apartWorse, apartBetter = apartBetter, apartWorse
	}
	switch {
	case worse > d.bound && apartWorse:
		return verdictRegressed, worse
	case -worse > d.bound && apartBetter:
		return verdictImproved, worse
	case base.spread() > d.bound || cand.spread() > d.bound || worse > d.bound || -worse > d.bound:
		return verdictUnresolved, worse
	}
	return verdictUnchanged, worse
}

func readSuite(path string) (*suiteResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per workload under every end-to-end metric
// and returns the exit code: 1 on any regression or a larger share of
// failed operations, 2 when a file cannot be read.
func compareFiles(basePath, candPath string) int {
	base, err := readSuite(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cand, err := readSuite(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareSuites(base, cand)
}

func compareSuites(base, cand *suiteResult) int {
	code := 0
	counts := map[string]int{}
	for _, d := range endToEndMetrics {
		fmt.Printf("%s (%s, %s is better, bound %.0f%%)\n", d.name, d.unit, d.better, 100*d.bound)
		for i := range workloads {
			name := workloads[i].name
			b, c := base.Workloads[name], cand.Workloads[name]
			if b == nil || c == nil {
				fmt.Printf("  %-10s missing from one side\n", name)
				counts[verdictUnresolved]++
				continue
			}
			bs, cs := b.EndToEnd[d.name], c.EndToEnd[d.name]
			v, worse := decide(d, bs, cs)
			counts[v]++
			if v == verdictRegressed {
				code = 1
			}
			fmt.Printf("  %-10s %14.4f -> %14.4f  %+7.2f%% worse  spread %.2f%% / %.2f%%  n=%d/%d  %s\n",
				name, bs.Median, cs.Median, 100*worse, 100*bs.spread(), 100*cs.spread(), bs.N, cs.N, v)
		}
	}
	fmt.Println("operations and deterministic outputs")
	for i := range workloads {
		name := workloads[i].name
		b, c := base.Workloads[name], cand.Workloads[name]
		if b == nil || c == nil {
			continue
		}
		bShare := ratio(float64(b.Failed), float64(b.Attempted))
		cShare := ratio(float64(c.Failed), float64(c.Attempted))
		note := "failed share not larger"
		if cShare > bShare || (!c.Correct && b.Correct) {
			note = "MORE FAILED OPERATIONS"
			code = 1
		}
		same := "n/a (different seeds)"
		if base.Seed == cand.Seed {
			same = "identical"
			if b.Signature != c.Signature {
				same = "DIFFER: the simulated outputs changed"
			}
		}
		fmt.Printf("  %-10s failed %d/%d -> %d/%d  %s; report signature %s\n",
			name, b.Failed, b.Attempted, c.Failed, c.Attempted, note, same)
	}
	fmt.Printf("%d regressed, %d unresolved, %d improved, %d unchanged\n",
		counts[verdictRegressed], counts[verdictUnresolved], counts[verdictImproved], counts[verdictUnchanged])
	return code
}

// runPairs runs two builds of the benchmark alternately — A B, B A, A B …
// — one untraced pass per workload per turn, so slow drift on the box
// lands on both sides alike, then compares the two sets and counts, per
// pairing, how many pairs the candidate won.
func runPairs(n int, binA, binB string, seed uint64, outDir string) int {
	if binA == "" || binB == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -pairs needs -a and -b benchmark binaries")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	samples := [2]map[string][]*childResult{{}, {}}
	bins := [2]string{binA, binB}
	for i := 0; i < n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for wi := range workloads {
			w := &workloads[wi]
			for _, side := range order {
				res, err := launchBinary(bins[side], w.name, seed, outDir, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				samples[side][w.name] = append(samples[side][w.name], res)
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %s done\n", i+1, n, w.name)
		}
	}
	var suites [2]*suiteResult
	for side := range suites {
		s := &suiteResult{Seed: seed, Reps: n, GoMaxProc: runtime.GOMAXPROCS(0), Workloads: map[string]*suiteWorkload{}}
		for name, passes := range samples[side] {
			folded, errs := foldPasses(passes, false)
			s.Workloads[name] = &suiteWorkload{
				Packets: passes[0].Packets, Correct: folded.Correct, Attempted: folded.Attempted, Failed: folded.Failed,
				Errors: errs, Signature: passes[0].Signature, Proof: passes[0].Proof, EndToEnd: summarizePasses(passes),
			}
		}
		suites[side] = s
		if err := writeSuite(filepath.Join(outDir, fmt.Sprintf("pairs-%c.json", 'a'+side)), s); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	fmt.Printf("pairs won by b (ties count for neither), of %d\n", n)
	for _, d := range endToEndMetrics {
		fmt.Printf("  %-20s", d.name)
		for wi := range workloads {
			name := workloads[wi].name
			wins := 0
			for i := 0; i < n; i++ {
				a, b := samples[0][name][i].Metrics[d.name], samples[1][name][i].Metrics[d.name]
				if (d.better == "lower" && b < a) || (d.better == "higher" && b > a) {
					wins++
				}
			}
			fmt.Printf(" %s %d", name, wins)
		}
		fmt.Println()
	}
	return compareSuites(suites[0], suites[1])
}
