// Package metrics provides the repo's two measurement toolkits.
//
// The experiment half is sample accumulation (mean, standard deviation,
// confidence intervals, percentiles) and fixed-width text tables matching
// the rows EXPERIMENTS.md records.
//
// The observability half (prom.go) is a stdlib-only Prometheus metric
// registry — counters, gauges, fixed-bucket histograms and their label
// vectors — with deterministic text-format exposition (WriteTo) and a
// format validator (ValidateText). The gateway (internal/gateway) and the
// node control plane (internal/nodeapi) serve their GET /metrics endpoints
// from it; docs/metrics.md documents every exported family, enforced by
// test.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates observations of one quantity.
type Sample struct {
	values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (n−1 denominator).
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of the ~95% confidence interval of the mean
// (normal approximation, 1.96·σ/√n).
func (s *Sample) CI95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(n))
}

// Min and Max report the range (0 for empty samples).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max reports the largest observation.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	return nearestRank(sorted, p)
}

// nearestRank reads the p-th percentile off an ascending slice (0 when
// empty).
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// SortedSample keeps its observations in ascending order as they arrive, so
// a percentile is an index lookup instead of a copy and a sort: the shape a
// long-running process needs when every scrape asks for percentiles of an
// all-time sample. Percentile agrees with Sample.Percentile bit for bit.
type SortedSample struct {
	sorted []float64
}

// Add inserts an observation at its rank.
func (s *SortedSample) Add(v float64) {
	i := sort.SearchFloat64s(s.sorted, v)
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[i+1:], s.sorted[i:])
	s.sorted[i] = v
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
func (s *SortedSample) Percentile(p float64) float64 { return nearestRank(s.sorted, p) }

// Table is a fixed-width text table with a caption, rendered into
// EXPERIMENTS.md and experiment stdout.
type Table struct {
	Caption string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given caption and column headers.
func NewTable(caption string, headers ...string) *Table {
	return &Table{Caption: caption, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v unless already strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col); empty when out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.rows[row]) {
		return ""
	}
	return t.rows[row][col]
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Caption != "" {
		sb.WriteString(t.Caption)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&sb, "**%s**\n\n", t.Caption)
	}
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header line.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Headers, ",") + "\n")
	for _, row := range t.rows {
		sb.WriteString(strings.Join(row, ",") + "\n")
	}
	return sb.String()
}
