// Package stats holds the small numeric and text-rendering helpers the
// experiment harness uses: summary statistics, ASCII bar charts for
// distribution figures, and aligned tables.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []int) int {
	max := 0
	for i, x := range xs {
		if i == 0 || x > max {
			max = x
		}
	}
	return max
}

// Variance returns the population variance.
func Variance(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := float64(x) - m
		s += d * d
	}
	return s / float64(len(xs))
}

// CV returns the coefficient of variation (stddev/mean); 0 when the
// mean is zero.
func CV(xs []int) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return math.Sqrt(Variance(xs)) / m
}

// Bars renders an ASCII bar chart of per-index values, one row per
// index, scaled to width columns.
func Bars(w io.Writer, label string, values []int, width int) {
	max := Max(values)
	if max == 0 {
		max = 1
	}
	fmt.Fprintf(w, "%s\n", label)
	for i, v := range values {
		n := v * width / max
		fmt.Fprintf(w, "  %3d |%-*s %d\n", i, width, strings.Repeat("#", n), v)
	}
}

// Table renders rows with aligned columns separated by two spaces.
func Table(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}
