// Package experiments reproduces every table and figure in the paper's
// evaluation: each experiment is a function from an explicit configuration
// to typed rows/series, used by cmd/experiments, the examples, the
// benchmark harness, and EXPERIMENTS.md.
//
// Index (see DESIGN.md for the full mapping):
//
//	Table1  — botnet scan commands captured on a live network
//	Fig1    — Blaster unique sources by destination /24 + seed inversion
//	Fig2    — Slammer unique sources by destination /24 (cycle structure)
//	Fig3    — per-host Slammer scanning + LCG cycle census
//	Fig4    — CodeRedII unique sources by /24 + quarantined-host runs
//	Table2  — enterprise egress filtering vs broadband ISPs
//	Fig5a   — hit-list length vs infection rate
//	Fig5b   — hit-list length vs sensor alert rate
//	Fig5c   — sensor placement vs alert rate under NAT'd populations
//
// Absolute numbers are not expected to match the paper (its inputs were
// live 2004–2005 captures); the reproduced quantity is the shape: who wins,
// by what order of magnitude, and where the crossovers fall.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a reproduced table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
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
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one plotted line.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced figure: one or more series over shared axes.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Result bundles an experiment's outputs.
type Result struct {
	Tables  []Table
	Figures []Figure
	// Notes carries experiment-specific findings (hotspot reports, seed
	// inversions, block totals) for the textual summary.
	Notes []string
	// Metrics records key scalar outcomes by name (e.g.
	// "fig5c.placed-192/8.alerted_at_20pct") for programmatic checks.
	Metrics map[string]float64
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// SetMetric records a named scalar outcome.
func (r *Result) SetMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Downsample reduces a series to at most n points by striding, always
// keeping the final point; it returns the input when already small enough.
func Downsample(s Series, n int) Series {
	if n <= 0 || len(s.X) <= n {
		return s
	}
	stride := (len(s.X) + n - 1) / n
	out := Series{Name: s.Name}
	for i := 0; i < len(s.X); i += stride {
		out.X = append(out.X, s.X[i])
		out.Y = append(out.Y, s.Y[i])
	}
	last := len(s.X) - 1
	//lint:ignore float-eq out.X holds copies of s.X elements, so != asks exactly whether the last point was already kept
	if out.X[len(out.X)-1] != s.X[last] {
		out.X = append(out.X, s.X[last])
		out.Y = append(out.Y, s.Y[last])
	}
	return out
}

// sortedKeys returns the sorted keys of a string-keyed map (stable output
// ordering for tables).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
