// Package experiments regenerates every table and figure of the
// SmartWatch paper's evaluation (§5). Each Fig*/Table* function runs the
// corresponding workload and returns a Table whose rows mirror the series
// the paper plots; cmd/experiments prints them. A figure that scores
// detection or runs the whole path drives core.Session through one runner
// (drive); a figure that characterises one component — the FlowCache on
// the sNIC DES, the switch, a sketch — builds that component alone.
//
// The Scale knob shrinks workload sizes proportionally (virtual time makes
// rates exact regardless); Scale 1 is the default used for EXPERIMENTS.md,
// smaller values keep unit tests fast. Absolute numbers differ from the
// paper (its substrate is real hardware; see DESIGN.md §2) — what must
// hold is each figure's shape: orderings, knees and crossover points.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result in printable form.
type Table struct {
	// ID is the paper artifact ("fig5a", "table4", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns name the fields of each row.
	Columns []string
	// Rows are the data series.
	Rows [][]string
	// Notes carry caveats (scaling, substitutions).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// d formats an integer.
func d[T ~int | ~int64 | ~uint64](v T) string { return fmt.Sprintf("%d", v) }

// scaleInt applies the Scale knob with a floor of 1.
func scaleInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}
