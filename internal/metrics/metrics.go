// Package metrics provides the repo's two measurement toolkits.
//
// The experiment half is sample accumulation (mean, standard deviation,
// confidence intervals, percentiles); the tables the experiment suite
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
