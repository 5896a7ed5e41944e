// Package metrics provides the small statistics and text-rendering
// utilities the report generators use: bucketed histograms (the Figure 3
// distributions) and aligned text tables.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts values into user-defined buckets. Edges are the upper
// bounds (exclusive) of each bucket; values ≥ the last edge land in the
// overflow bucket.
type Histogram struct {
	Edges  []float64
	Counts []int64
	N      int64
	Sum    float64
	Min    float64
	Max    float64
}

// NewHistogram builds a histogram with the given upper edges (must be
// increasing).
func NewHistogram(edges ...float64) *Histogram {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("metrics: histogram edges must increase")
		}
	}
	return &Histogram{Edges: edges, Counts: make([]int64, len(edges)+1)}
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	i := sort.SearchFloat64s(h.Edges, v)
	if i < len(h.Edges) && v == h.Edges[i] {
		i++ // edges are exclusive upper bounds
	}
	h.Counts[i]++
	h.N++
	h.Sum += v
	if h.N == 1 || v < h.Min {
		h.Min = v
	}
	if h.N == 1 || v > h.Max {
		h.Max = v
	}
}

// Mean returns the average of the recorded values.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Pct returns each bucket's share in percent.
func (h *Histogram) Pct() []float64 {
	out := make([]float64, len(h.Counts))
	if h.N == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = 100 * float64(c) / float64(h.N)
	}
	return out
}

// BucketLabel returns a human-readable label for bucket i.
func (h *Histogram) BucketLabel(i int) string {
	switch {
	case len(h.Edges) == 0:
		return "all"
	case i == 0:
		return fmt.Sprintf("<%g", h.Edges[0])
	case i == len(h.Edges):
		return fmt.Sprintf("≥%g", h.Edges[len(h.Edges)-1])
	default:
		return fmt.Sprintf("%g-%g", h.Edges[i-1], h.Edges[i])
	}
}

// Render draws the histogram as an ASCII bar chart.
func (h *Histogram) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d, mean=%.1f)\n", title, h.N, h.Mean())
	pcts := h.Pct()
	for i := range h.Counts {
		bar := strings.Repeat("#", int(pcts[i]/2+0.5))
		fmt.Fprintf(&b, "  %-12s %6.1f%% %s\n", h.BucketLabel(i), pcts[i], bar)
	}
	return b.String()
}

// Table renders aligned text tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	notes   []string
}

// NewTable starts a table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case float32:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
	return t
}

// Note attaches a footnote printed under the table, one line per call.
func (t *Table) Note(format string, args ...interface{}) *Table {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	return t
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		width[i] = len([]rune(hd))
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len([]rune(c)) > width[i] {
				width[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := width[i] - len([]rune(c))
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// PctOf is a guarded percentage.
func PctOf(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// PctOfF is a guarded percentage for floats.
func PctOfF(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
