// Package metrics provides the repo's two measurement toolkits.
//
// The experiment half is sample accumulation (mean and nearest-rank
// percentiles); the tables the experiment suite
// prints are internal/experiments' own.
//
// The observability half (prom.go) is a stdlib-only Prometheus text-format
// renderer and parser: a Builder that takes values read at scrape time
// (counters, gauges, labelled series, histograms given as bounds, counts and
// sum) and renders them deterministically (WriteTo), a plain Histogram its
// owner observes into under its own lock, and the parser that reads the
// text back (ParseText). It keeps no live instrument. The gateway
// (internal/gateway) and the node control plane (internal/nodeapi) build
// their GET /metrics from their own state on each scrape; docs/metrics.md
// documents every exported family, enforced by test.
package metrics

import (
	"math"
	"sort"
)

// Sample accumulates observations of one quantity.
type Sample struct {
	values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

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
