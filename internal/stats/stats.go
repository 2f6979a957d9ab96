// Package stats provides the small statistics and table-rendering helpers
// shared by the experiment harness and the command-line tools.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary summarizes a sample.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
}

// Summarize returns the summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	return s
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation. It returns NaN for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Accumulator collects values incrementally.
type Accumulator struct {
	xs []float64
}

// Add appends a value.
func (a *Accumulator) Add(x float64) { a.xs = append(a.xs, x) }

// AddInt appends an integer value.
func (a *Accumulator) AddInt(x int) { a.xs = append(a.xs, float64(x)) }

// Summary summarizes the accumulated values.
func (a *Accumulator) Summary() Summary { return Summarize(a.xs) }

// Values returns a copy of the accumulated values.
func (a *Accumulator) Values() []float64 {
	out := make([]float64, len(a.xs))
	copy(out, a.xs)
	return out
}

// Table renders fixed-width text tables for the experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v, with float64 cells
// rendered to 2 decimal places and "-" for NaN.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.IsNaN(v) {
				row[i] = "-"
			} else {
				row[i] = fmt.Sprintf("%.2f", v)
			}
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render returns the formatted table.
func (t *Table) Render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table in comma-separated form (no quoting; cells must not
// contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
