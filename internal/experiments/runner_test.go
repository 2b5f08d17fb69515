package experiments

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// render runs every registered experiment through RunAll at the given
// parallelism and returns the concatenated rendered tables — exactly what
// `cmd/experiments all` writes to stdout.
func render(t *testing.T, scale float64, parallel int) []byte {
	t.Helper()
	var buf bytes.Buffer
	RunAll(Registry(), scale, parallel, func(r Result) {
		if r.Table == nil {
			t.Fatalf("%s returned nil table", r.ID)
		}
		if _, err := r.Table.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	})
	return buf.Bytes()
}

// TestRunAllDeterministic is the PR's core guarantee: the full rendered
// `all` output is byte-identical between a sequential run and a maximally
// parallel run. Parallelism may change wall-clock time, never results.
func TestRunAllDeterministic(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	const scale = 0.01
	seq := render(t, scale, 1)
	par := render(t, scale, 8)
	if !bytes.Equal(seq, par) {
		i := 0
		for i < len(seq) && i < len(par) && seq[i] == par[i] {
			i++
		}
		lo, hi := max(0, i-80), min(len(seq), i+80)
		t.Fatalf("output diverges at byte %d:\nsequential: ...%q\nparallel:   ...%q",
			i, seq[lo:hi], par[lo:min(len(par), i+80)])
	}
	if len(seq) == 0 {
		t.Fatal("no output produced")
	}
}

// TestRunAllOrderAndCompleteness checks the runner machinery itself with
// synthetic experiments: every experiment runs exactly once, emit order
// matches input order even when early experiments finish last, and emit is
// never invoked concurrently.
func TestRunAllOrderAndCompleteness(t *testing.T) {
	t.Parallel()
	const n = 16
	var calls [n]atomic.Int32
	exps := make([]Exp, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("exp%02d", i)
		exps[i] = Exp{ID: id, Fn: func(scale float64) *Table {
			calls[i].Add(1)
			// Invert completion order: early experiments sleep longest.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return &Table{ID: id, Title: id, Columns: []string{"scale"}}
		}}
	}
	var emitted []string
	inEmit := atomic.Int32{}
	RunAll(exps, 1.0, 4, func(r Result) {
		if inEmit.Add(1) != 1 {
			t.Error("emit invoked concurrently")
		}
		defer inEmit.Add(-1)
		emitted = append(emitted, r.ID)
	})
	if len(emitted) != n {
		t.Fatalf("emitted %d results, want %d", len(emitted), n)
	}
	for i, id := range emitted {
		if want := fmt.Sprintf("exp%02d", i); id != want {
			t.Errorf("emit[%d] = %s, want %s", i, id, want)
		}
	}
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("experiment %d ran %d times", i, got)
		}
	}
}

// TestRegistryComplete pins the registry against the experiment set: every
// ID is unique and sorted, and lookups hit.
func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	reg := Registry()
	if len(reg) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(reg))
	}
	for i := 1; i < len(reg); i++ {
		if reg[i-1].ID >= reg[i].ID {
			t.Errorf("registry not sorted/unique at %q >= %q", reg[i-1].ID, reg[i].ID)
		}
	}
	for _, e := range reg {
		if got, ok := Lookup(e.ID); !ok || got.ID != e.ID {
			t.Errorf("Lookup(%q) failed", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown ID succeeded")
	}
}
