// Package stats provides the small numeric and text-rendering helpers
// shared by the benchmark harness: aligned tables, ASCII bars for
// figure-style output, and summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title string
	Cols  []string
	rows  [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// Row appends a row; missing cells render empty.
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		width[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i := range t.Cols {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}

// Bar renders frac (clamped to [0,1]) as an ASCII bar of the given
// width — the harness's stand-in for the paper's bar charts.
func Bar(frac float64, width int) string {
	if math.IsNaN(frac) {
		frac = 0
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the extremes (zeros for empty input).
func MinMax(xs []float64) (mn, mx float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mn, mx = xs[0], xs[0]
	for _, x := range xs[1:] {
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	return mn, mx
}

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Z95 is the normal quantile for a two-sided 95% confidence level.
const Z95 = 1.959963984540054

// Wilson returns the Wilson score confidence interval for a binomial
// proportion: k successes out of n trials at normal quantile z (use
// Z95 for the conventional 95% level). Unlike the normal
// approximation, the interval stays inside [0,1] and behaves sensibly
// at k=0 and k=n — exactly the regime fault-injection outcome classes
// live in (rare SDCs, near-100% protection rates). n<=0 returns the
// vacuous interval [0,1].
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	margin := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - margin) / denom
	hi = (center + margin) / denom
	// Snap the closed ends exactly: at k=0 (k=n) the proportion itself
	// is a bound and rounding must not pull it inside the interval.
	if k == 0 || lo < 0 {
		lo = 0
	}
	if k == n || hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(frac float64) string { return fmt.Sprintf("%.2f%%", 100*frac) }

// X formats a ratio as a multiplier with two decimals.
func X(ratio float64) string { return fmt.Sprintf("%.2fx", ratio) }
