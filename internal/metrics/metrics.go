// Package metrics provides the evaluation bookkeeping of §5.1f: bit
// error rate, packet loss rate, normalized throughput, and the CDF
// summaries every testbed figure is built from.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MaxAcceptableBER is the uncoded bit-error threshold below which a
// packet counts as correctly received (§5.1f: 10⁻³ before coding).
const MaxAcceptableBER = 1e-3

// Sample accumulates scalar observations.
//
// Sample is the O(observations) accumulator: it materializes every
// observation, and is the exact-order-statistics path the testbed CDF
// figures are built from. QuantileSketch (stream.go) answers the same
// queries within a relative accuracy in bounded memory.
type Sample struct {
	xs []float64

	// sorted memoizes the sorted view of xs so repeated Quantile/CDF
	// calls with no intervening Add sort once instead of per call. It is
	// valid iff clean is true; Add invalidates it.
	sorted []float64
	clean  bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.clean = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// sortedView returns the memoized sorted copy of the observations,
// re-sorting only when an Add happened since the last call.
func (s *Sample) sortedView() []float64 {
	if !s.clean {
		s.sorted = append(s.sorted[:0], s.xs...)
		sort.Float64s(s.sorted)
		s.clean = true
	}
	return s.sorted
}

// Mean returns the average, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range s.xs {
		t += v
	}
	return t / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation,
// or NaN when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	xs := s.sortedView()
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i]*(1-frac) + xs[i+1]*frac
}

// CDF returns (value, fraction≤value) pairs at each distinct observation,
// suitable for printing a cumulative distribution like Figs 5-5..5-9.
func (s *Sample) CDF() []Point {
	if len(s.xs) == 0 {
		return nil
	}
	xs := s.sortedView()
	var out []Point
	n := float64(len(xs))
	for i := 0; i < len(xs); i++ {
		if i+1 < len(xs) && xs[i+1] == xs[i] {
			continue
		}
		out = append(out, Point{X: xs[i], Y: float64(i+1) / n})
	}
	return out
}

// Point is one (x, y) pair of a printed series.
type Point struct{ X, Y float64 }

// FormatCDF renders a CDF as aligned text rows.
func FormatCDF(name string, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# CDF: %s\n", name)
	for _, p := range pts {
		fmt.Fprintf(&b, "%10.4f %8.4f\n", p.X, p.Y)
	}
	return b.String()
}

// FlowStats aggregates one sender→AP flow's outcome.
type FlowStats struct {
	Sent      int
	Delivered int
	// AirtimeUnits counts delivered packets times their airtime,
	// normalized so 1.0 means the medium was fully utilized by this
	// flow (§5.1f's normalized throughput).
	Throughput float64
}

// LossRate returns the fraction of offered packets that were lost.
func (f FlowStats) LossRate() float64 {
	if f.Sent == 0 {
		return 0
	}
	return 1 - float64(f.Delivered)/float64(f.Sent)
}

// Series is a named sequence of points for table/figure output.
type Series struct {
	Name   string
	Points []Point
}

// Format renders the series as text.
func (s Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# series: %s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%12.5f %12.5f\n", p.X, p.Y)
	}
	return b.String()
}

// Table is a simple aligned text table for reproducing the paper's
// tabular results (Table 5.1).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
