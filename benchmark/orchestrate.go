package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// minPasses fresh-process passes back every reported median, however
// short -seconds is.
const minPasses = 3

// contractResult is the one-line JSON the driver reads.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload the way BENCHMARK.json's command is
// called: untraced passes in fresh processes until the time is spent
// (each does its own set-up, so setup_s is a median of several set-ups
// too), or one traced pass. The last stdout line is the result object.
func runContract(w *workload, seed uint64, budget time.Duration, traced bool, outDir string) int {
	start := time.Now()
	var results []*childResult
	for {
		res, err := launchSelf(w, seed, outDir, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		results = append(results, res)
		if traced || (len(results) >= minPasses && time.Since(start) >= budget) {
			break
		}
	}
	out, errs := foldPasses(results, traced)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s\n", w.name, seed, e)
	}
	fmt.Printf("workload %s seed %d: %d passes of %d packets, proof %s\n",
		w.name, seed, len(results), results[0].Packets, proofLine(results[0].Proof))
	printMetrics(out.Metrics, defsFor(traced))
	if traced {
		printBudget(w.name, results[0].Budget)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// foldPasses reduces the passes of one (workload, seed) to the contract
// result: per-metric medians, summed operations, and every failed check
// — including a report signature that differs between passes.
func foldPasses(results []*childResult, traced bool) (contractResult, []string) {
	out := contractResult{Metrics: map[string]metricValue{}}
	var errs []string
	for i, r := range results {
		out.Attempted += uint64(r.Packets)
		out.Failed += r.Failed
		errs = append(errs, r.Errors...)
		if r.Signature != results[0].Signature {
			errs = append(errs, fmt.Sprintf("pass %d report signature %s differs from pass 0's %s", i, r.Signature, results[0].Signature))
		}
	}
	for _, d := range defsFor(traced) {
		var xs []float64
		for _, r := range results {
			v, ok := r.Metrics[d.name]
			if !ok {
				errs = append(errs, "metric "+d.name+" not emitted")
				continue
			}
			xs = append(xs, v)
		}
		out.Metrics[d.name] = metricValue{Value: summarize(xs).Median, Unit: d.unit}
	}
	out.Correct = len(errs) == 0 && out.Failed == 0
	return out, errs
}

func proofLine(p proof) string {
	return fmt.Sprintf("offered=%d direct=%d switch-dropped=%d to-snic=%d processed=%d snic-dropped=%d hit-rate=%.4f evictions=%d punts=%d switchovers=%d",
		p.Offered, p.ForwardedDirect, p.DroppedAtSwitch, p.ToSNIC, p.Processed, p.Dropped, p.HitRate, p.Evictions, p.HostPunts, p.Switchovers)
}

func printMetrics(m map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-40s %16.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}

func printBudget(workload string, rows []budgetRow) {
	fmt.Printf("layer budget, %s (self ns per offered packet; rows sum to the traced total)\n", workload)
	var total float64
	for _, r := range rows {
		fmt.Printf("  %-20s %10.1f %6.1f%%  %s\n", r.Layer, r.NsPkt, 100*r.Share, r.Measure)
		total += r.NsPkt
	}
	fmt.Printf("  %-20s %10.1f\n", "traced total", total)
}

// suiteResult is what one full run writes to disk and -compare reads.
type suiteResult struct {
	Seed      uint64                    `json:"seed"`
	Reps      int                       `json:"reps"`
	GoMaxProc int                       `json:"gomaxprocs"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Packets   int                `json:"packets"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Signature string             `json:"signature"`
	Proof     proof              `json:"proof"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Budget    []budgetRow        `json:"budget"`
}

// runSuite is the one command: every workload, reps untraced repetitions
// interleaved round-robin so drift on the box hits all workloads alike,
// then one traced repetition each; prints every metric by name with its
// unit and the layer budget, and writes the result for -compare.
func runSuite(seed uint64, reps int, outDir string) int {
	untraced := map[string][]*childResult{}
	for r := 0; r < reps; r++ {
		for i := range workloads {
			w := &workloads[i]
			res, err := launchSelf(w, seed, outDir, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			untraced[w.name] = append(untraced[w.name], res)
			fmt.Fprintf(os.Stderr, "rep %d/%d %-10s %8.1f ns/pkt\n", r+1, reps, w.name, res.Metrics["ns_per_pkt"])
		}
	}
	suite := suiteResult{Seed: seed, Reps: reps, GoMaxProc: runtime.GOMAXPROCS(0), Workloads: map[string]*suiteWorkload{}}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		tr, err := launchSelf(w, seed, outDir, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		passes := untraced[w.name]
		folded, errs := foldPasses(passes, false)
		tfold, terrs := foldPasses([]*childResult{tr}, true)
		if tr.Signature != passes[0].Signature {
			terrs = append(terrs, "traced pass signature differs from the untraced passes'")
		}
		sw := &suiteWorkload{
			Packets: passes[0].Packets, Attempted: folded.Attempted, Failed: folded.Failed + tfold.Failed,
			Errors: append(errs, terrs...), Signature: passes[0].Signature, Proof: passes[0].Proof,
			EndToEnd: summarizePasses(passes), PerLayer: tr.Metrics, Budget: tr.Budget,
		}
		sw.Correct = len(sw.Errors) == 0 && sw.Failed == 0
		ok = ok && sw.Correct
		suite.Workloads[w.name] = sw
	}
	printSuite(&suite)
	path := filepath.Join(outDir, fmt.Sprintf("suite-seed%d.json", seed))
	if err := writeSuite(path, &suite); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("result written to", path)
	if !ok {
		return 1
	}
	return 0
}

func writeSuite(path string, s *suiteResult) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// summarizePasses gives every end-to-end metric's spread over the passes.
func summarizePasses(passes []*childResult) map[string]summary {
	out := map[string]summary{}
	for _, d := range endToEndMetrics {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p.Metrics[d.name]
		}
		out[d.name] = summarize(xs)
	}
	return out
}

func printSuite(s *suiteResult) {
	names := make([]string, 0, len(s.Workloads))
	for i := range workloads {
		names = append(names, workloads[i].name)
	}
	fmt.Printf("benchmark suite: seed %d, %d untraced repetitions + 1 traced per workload, GOMAXPROCS %d\n\n", s.Seed, s.Reps, s.GoMaxProc)
	fmt.Println("end-to-end metrics (median [q1, q3] min..max n)")
	for _, d := range endToEndMetrics {
		fmt.Printf("%s (%s, %s is better, bound %.0f%%)\n", d.name, d.unit, d.better, 100*d.bound)
		for _, n := range names {
			e := s.Workloads[n].EndToEnd[d.name]
			fmt.Printf("  %-10s %14.4f [%.4f, %.4f] %.4f..%.4f n=%d spread %.2f%%\n", n, e.Median, e.Q1, e.Q3, e.Min, e.Max, e.N, 100*e.spread())
		}
	}
	fmt.Println("\nworkload self-proof and checks")
	for _, n := range names {
		w := s.Workloads[n]
		fmt.Printf("  %-10s correct=%v attempted=%d failed=%d signature=%s\n             %s\n", n, w.Correct, w.Attempted, w.Failed, w.Signature, proofLine(w.Proof))
		for _, e := range w.Errors {
			fmt.Printf("             FAILED CHECK: %s\n", e)
		}
	}
	fmt.Printf("\nper-layer metrics (one traced repetition)\n  %-40s %-7s", "metric", "unit")
	for _, n := range names {
		fmt.Printf(" %12s", n)
	}
	fmt.Println()
	for _, d := range perLayerMetrics {
		fmt.Printf("  %-40s %-7s", d.name, d.unit)
		for _, n := range names {
			fmt.Printf(" %12.3f", s.Workloads[n].PerLayer[d.name])
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Print(budgetTable(s, names))
}

// budgetTable renders the layer budget as a markdown table: self ns per
// offered packet and share of the traced total, one column per workload.
func budgetTable(s *suiteResult, names []string) string {
	// Measured layers in first-seen order, then the two derived rows.
	derived := []string{"core.glue", "bench.trace_overhead"}
	seen := map[string]bool{derived[0]: true, derived[1]: true}
	var layers []string
	for _, n := range names {
		for _, r := range s.Workloads[n].Budget {
			if !seen[r.Layer] {
				seen[r.Layer] = true
				layers = append(layers, r.Layer)
			}
		}
	}
	layers = append(layers, derived...)
	var b strings.Builder
	b.WriteString("layer budget: self ns per offered packet (share of the traced total)\n\n| layer |")
	for _, n := range names {
		fmt.Fprintf(&b, " %s |", n)
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---:|", len(names)))
	b.WriteString("\n")
	totals := make([]float64, len(names))
	for _, l := range layers {
		fmt.Fprintf(&b, "| %s |", l)
		for i, n := range names {
			cell := " – |"
			for _, r := range s.Workloads[n].Budget {
				if r.Layer == l {
					cell = fmt.Sprintf(" %.1f (%.0f%%) |", r.NsPkt, 100*r.Share)
					totals[i] += r.NsPkt
				}
			}
			b.WriteString(cell)
		}
		b.WriteString("\n")
	}
	b.WriteString("| **traced total** |")
	for _, t := range totals {
		fmt.Fprintf(&b, " **%.1f** |", t)
	}
	b.WriteString("\n| untraced ns_per_pkt (median) |")
	for _, n := range names {
		fmt.Fprintf(&b, " %.1f |", s.Workloads[n].EndToEnd["ns_per_pkt"].Median)
	}
	b.WriteString("\n")
	return b.String()
}
