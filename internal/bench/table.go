// Package bench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated cluster, plus two ablations. Each
// experiment returns a Table that cmd/restore-bench prints; the root
// package's bench_test.go exposes the same experiments as Go benchmarks.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote (averages, paper reference values).
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// minutes formats a duration as minutes with one decimal, the unit of the
// paper's time figures.
func minutes(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Minutes())
}

// ratio formats a unitless ratio.
func ratio(v float64) string {
	return fmt.Sprintf("%.2f", v)
}

// gb formats bytes as GB with one decimal.
func gb(b float64) string {
	return fmt.Sprintf("%.1f", b/(1<<30))
}
