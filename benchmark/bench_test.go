package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testScale shrinks each workload to a fraction of a second while keeping
// what it exists to exercise: surge needs ~14 phase flips, churn an
// oversubscribed table (its RowBits shrink with the population).
var testScale = map[string]float64{
	"backbone": 0.05, "manyflows": 0.02, "churn": 0.125, "surge": 0.25, "fanout2": 0.05,
}

// smokeRun is one in-process traced child at test scale plus an untraced
// repeat of the same seed.
type smokeRun struct {
	in        *inputs
	base, tp  *pass
	rp        *replayed
	metrics   map[string]float64
	e2e       map[string]float64
	budget    []budgetRow
	errs      []string
	repeatSig string
	repeatE2E map[string]float64
	failedOps uint64
}

func smoke(t *testing.T, name string) *smokeRun {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	scale, dir := testScale[name], t.TempDir()
	in, err := prepare(w, 7, scale, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer in.cleanup()
	run := &smokeRun{in: in}
	if run.base, err = drive(in, w.config(scale), nil); err != nil {
		t.Fatal(err)
	}
	_, run.failedOps, run.errs = verify(in, run.base)
	run.e2e = endToEnd(in, run.base, 1)
	if run.tp, err = drive(in, w.config(scale), newTracer(in.pkts)); err != nil {
		t.Fatal(err)
	}
	run.rp = &replayed{}
	if w.workers <= 1 {
		run.rp = replayLayers(in, run.tp)
	}
	arms, armErrs := runArms(in, signature(run.base))
	run.errs = append(run.errs, armErrs...)
	run.metrics, run.budget = perLayer(in, run.base, run.tp, run.rp, arms)
	if err := writeSpans(dir, w, 7, run.tp.tr.spans); err != nil {
		t.Fatal(err)
	}

	again, err := drive(in, w.config(scale), nil)
	if err != nil {
		t.Fatal(err)
	}
	run.repeatSig, run.repeatE2E = signature(again), endToEnd(in, again, 1)
	return run
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		name := workloads[i].name
		t.Run(name, func(t *testing.T) {
			run := smoke(t, name)
			for _, e := range append(run.errs, run.rp.errs...) {
				t.Errorf("failed check: %s", e)
			}
			if run.failedOps != 0 {
				t.Errorf("%d failed operations", run.failedOps)
			}
			for _, d := range endToEndMetrics {
				if v, ok := run.e2e[d.name]; !ok {
					t.Errorf("end-to-end metric %s not emitted", d.name)
				} else if v == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
			for _, d := range perLayerMetrics {
				if _, ok := run.metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s not emitted", d.name)
				}
			}
			for k := range run.metrics {
				if !nameRE.MatchString(k) {
					t.Errorf("metric name %q outside [A-Za-z0-9_.-]", k)
				}
			}
			if len(run.metrics) != len(perLayerMetrics) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(run.metrics), len(perLayerMetrics))
			}

			// Traced, untraced and repeated passes of one seed agree on
			// every simulated output.
			if a, b := signature(run.base), signature(run.tp); a != b {
				t.Errorf("traced signature %s != untraced %s", b, a)
			}
			if a := signature(run.base); a != run.repeatSig {
				t.Errorf("repeat signature %s != %s", run.repeatSig, a)
			}
			for _, m := range []string{"sim_delivered_frac", "flowcache_hit_rate", "flowlog_coverage"} {
				if run.e2e[m] != run.repeatE2E[m] {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", m, run.e2e[m], run.repeatE2E[m])
				}
			}

			// The budget sums to the traced total.
			var sum float64
			for _, r := range run.budget {
				sum += r.NsPkt
			}
			if total := float64(run.tp.wallNs) / float64(run.in.packets); sum < total*0.999 || sum > total*1.001 {
				t.Errorf("budget sums to %.1f ns/pkt, traced total is %.1f", sum, total)
			}

			rep := &run.base.rep
			switch name {
			case "surge":
				if rep.Switchovers < 10 || rep.SNIC.Dropped == 0 {
					t.Errorf("surge: %d switchovers, %d drops", rep.Switchovers, rep.SNIC.Dropped)
				}
				if run.metrics["pcap.decode_ns_per_pkt"] != 0 {
					t.Errorf("surge decodes no pcap, got %v ns", run.metrics["pcap.decode_ns_per_pkt"])
				}
			case "churn":
				if rep.Cache.Evictions == 0 || rep.Cache.HostPunts == 0 {
					t.Errorf("churn: %d evictions, %d punts", rep.Cache.Evictions, rep.Cache.HostPunts)
				}
			case "manyflows":
				if run.metrics["detect.on_packet_ns_per_pkt"] != 0 || run.metrics["detect.alerts"] != 0 {
					t.Errorf("manyflows runs no detectors, got %v ns", run.metrics["detect.on_packet_ns_per_pkt"])
				}
				if run.metrics["flowcache.process_ns_per_pkt"] == 0 {
					t.Error("manyflows replay measured no FlowCache time")
				}
			case "backbone":
				if run.metrics["detect.recall"] < 0.5 {
					t.Errorf("backbone recall %v", run.metrics["detect.recall"])
				}
			}
		})
	}
}

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json and the metric and
// workload tables in this package to each other.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEndMetrics))
	}
	sawSetup := false
	for i, d := range endToEndMetrics {
		s := spec.EndToEnd[i]
		if s.Name != d.name || s.Unit != d.unit || s.Better != d.better || s.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, s, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		sawSetup = sawSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, d := range perLayerMetrics {
		s := spec.PerLayer[i]
		if s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, s, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	s := summarize([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 || s.Min != 1 || s.Max != 46 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("n=3: got %+v", s)
	}
}

func TestDecide(t *testing.T) {
	lower := metricDef{name: "ns_per_pkt", better: "lower", bound: 0.10}
	higher := metricDef{name: "hit_rate", better: "higher", bound: 0.02}
	tight := func(m float64) summary { return summary{N: 10, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) summary { return summary{N: 10, Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, c := range []struct {
		name       string
		d          metricDef
		base, cand summary
		want       string
	}{
		{"same", lower, tight(100), tight(101), verdictUnchanged},
		{"slower beyond bound, quartiles apart", lower, tight(100), tight(115), verdictRegressed},
		{"faster beyond bound", lower, tight(100), tight(85), verdictImproved},
		{"spread wider than the bound is never unchanged", lower, wide(100), wide(101), verdictUnresolved},
		{"worse beyond bound but quartiles overlap", lower, wide(100), wide(112), verdictUnresolved},
		{"higher-is-better drop", higher, tight(0.99), tight(0.90), verdictRegressed},
		{"higher-is-better gain", higher, tight(0.90), tight(0.99), verdictImproved},
	} {
		if got, _ := decide(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}
