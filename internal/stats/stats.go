// Package stats provides the small numeric and table-rendering helpers the
// experiment harness uses to report results in the paper's format.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of xs, ignoring non-positive values
// the way benchmark summaries conventionally do. It returns 0 for an empty
// (or all non-positive) input.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table renders fixed-width text tables in the style of the paper.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddSeparator appends a horizontal rule row.
func (t *Table) AddSeparator() {
	t.rows = append(t.rows, nil)
}

// String renders the table with column-aligned cells: the first column
// left-aligned (benchmark names), the rest right-aligned (numbers).
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	rule := strings.Repeat("-", total-2)
	b.WriteString(rule)
	b.WriteByte('\n')
	for _, r := range t.rows {
		if r == nil {
			b.WriteString(rule)
			b.WriteByte('\n')
			continue
		}
		writeRow(r)
	}
	return b.String()
}

// KB renders a byte count as integer kilobytes, matching Table 1's units.
func KB(bytes uint64) string {
	kb := (bytes + 512) / 1024
	return fmt.Sprintf("%d", kb)
}

// Pct renders a fraction as a percentage with one decimal ("99.8%").
func Pct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}

// Ratio renders a slowdown factor with two decimals ("13.53").
func Ratio(f float64) string {
	return fmt.Sprintf("%.2f", f)
}
