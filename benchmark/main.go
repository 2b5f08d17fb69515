// Command benchmark is the repo's benchmark: wall clock from pcap bytes to
// the report on five workloads, with a per-layer budget that sums to the
// total. See README.md in this directory.
//
//	go run ./benchmark -seed 1                    # every workload, N repetitions, budget table
//	go run ./benchmark -workload churn -seed 7    # one workload, the BENCHMARK.json contract
//	go run ./benchmark -compare a.json b.json     # decide by committed bounds and quartile overlap
//	go run ./benchmark -pairs 10 -a old -b new    # alternate two builds A/B/B/A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "run one workload and print the one-line JSON result (default: the whole suite)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same packets")
		seconds = flag.Float64("seconds", 10, "how long one workload measures; passes repeat in fresh processes until it is spent")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced end-to-end metrics")
		reps    = flag.Int("reps", 5, "suite mode: untraced repetitions per workload, interleaved round-robin")
		outDir  = flag.String("outdir", filepath.Join("benchmark", "out"), "scratch pcaps, span dumps and suite results go here")
		child   = flag.Bool("child", false, "internal: run one pass in this process and print its result")
		compare = flag.Bool("compare", false, "compare two suite result files: -compare a.json b.json")
		pairs   = flag.Int("pairs", 0, "run two benchmark binaries alternately this many times: -pairs N -a bin -b bin")
		binA    = flag.String("a", "", "-pairs: baseline benchmark binary")
		binB    = flag.String("b", "", "-pairs: candidate benchmark binary")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *pairs > 0:
		os.Exit(runPairs(*pairs, *binA, *binB, *seed, *outDir))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *child {
		w, err := findWorkload(*wlName)
		if err != nil {
			fatal(err)
		}
		res, err := runChild(w, *seed, 1, *outDir, *traced == 1)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	if *wlName != "" {
		w, err := findWorkload(*wlName)
		if err != nil {
			fatal(err)
		}
		os.Exit(runContract(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *outDir))
	}
	os.Exit(runSuite(*seed, *reps, *outDir))
}

// launchSelf runs one pass of a workload in a fresh copy of this process,
// so heap and peak RSS never leak from one repetition into the next.
func launchSelf(w *workload, seed uint64, outDir string, traced bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return launchBinary(self, w.name, seed, outDir, traced)
}

func launchBinary(bin, workload string, seed uint64, outDir string, traced bool) (*childResult, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(bin, "-child", "-workload", workload, "-seed", fmt.Sprint(seed), "-outdir", outDir, "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass of %s (trace %s): %w", workload, tr, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
