package experiments

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Exp is one runnable experiment: a paper artifact ID and the function
// that regenerates it at a given workload scale.
type Exp struct {
	ID string
	Fn func(scale float64) *Table
}

// Registry returns every experiment in canonical (sorted-ID) order — the
// order `cmd/experiments all` emits. Each entry builds its own platforms or
// components and seeds its own PRNGs, sharing no state with another, so
// entries are safe to run concurrently.
func Registry() []Exp {
	exps := []Exp{
		{"fig2", Fig2SwitchState},
		{"fig3", Fig3Scaling},
		{"fig4", Fig4LatencyDist},
		{"fig5", Fig5Policies},
		{"fig6", Fig6Throughput},
		{"fig7", Fig7HostOverhead},
		{"fig8a", Fig8aSSHLatency},
		{"fig8b", Fig8bForgedRST},
		{"fig8c", Fig8cPortScan},
		{"fig9a", Fig9aCovertROC},
		{"fig9b", Fig9bFingerprint},
		{"fig10", Fig10Volumetric},
		{"fig11a", Fig11aMicroburst},
		{"fig11b", Fig11bThroughput},
		{"cluster", ClusterScaling},
		{"lowslow", LowSlowSuite},
		{"shards", ShardedScaling},
		{"table2", Table2Resources},
		{"ablations", Ablations},
		{"table3", Table3NICs},
		{"table4", Table4Detection},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Exp, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Exp{}, false
}

// Result is one experiment's outcome as delivered by RunAll.
type Result struct {
	ID      string
	Table   *Table
	Elapsed time.Duration
}

// RunAll executes the experiments with up to parallel concurrent workers
// and calls emit exactly once per experiment, in exps order — regardless
// of completion order, so output is byte-identical to a sequential run.
// Each emit call happens as soon as its result and all its predecessors'
// results exist (streaming, not a final barrier). parallel < 1 selects
// GOMAXPROCS. emit is never called concurrently.
//
// Determinism: every experiment owns its platforms and PRNG state, so the
// tables it returns depend only on (ID, scale) — concurrency changes
// wall-clock time, never results. Elapsed is the per-experiment compute
// time and naturally varies run to run.
func RunAll(exps []Exp, scale float64, parallel int, emit func(Result)) {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(exps) {
		parallel = len(exps)
	}
	if parallel <= 1 {
		for _, e := range exps {
			start := time.Now()
			emit(Result{ID: e.ID, Table: e.Fn(scale), Elapsed: time.Since(start)})
		}
		return
	}

	results := make([]Result, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}

	// Worker pool over a shared index: workers claim experiments in order,
	// so with W workers at most W experiments run ahead of the emit cursor.
	var next int
	var mu sync.Mutex
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(exps) {
			return -1
		}
		i := next
		next++
		return i
	}
	for w := 0; w < parallel; w++ {
		go func() {
			for {
				i := claim()
				if i < 0 {
					return
				}
				start := time.Now()
				results[i] = Result{ID: exps[i].ID, Table: exps[i].Fn(scale), Elapsed: time.Since(start)}
				close(done[i])
			}
		}()
	}
	for i := range exps {
		<-done[i]
		emit(results[i])
	}
}
