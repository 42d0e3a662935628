package main

import (
	"math"
	"sort"
	"time"
)

// sample is a bag of measurements. The zero value is ready to use; it is not
// safe for concurrent use (recorders guard it themselves).
type sample struct {
	v      []float64
	sorted bool
}

func (s *sample) add(x float64) { s.v = append(s.v, x); s.sorted = false }

func (s *sample) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *sample) n() int { return len(s.v) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// percentile is the nearest-rank percentile (p in (0,100]); 0 when empty.
func (s *sample) percentile(p float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	rank := rankOf(len(s.v), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.v) {
		rank = len(s.v)
	}
	return s.v[rank-1]
}

func (s *sample) median() float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	n := len(s.v)
	if n%2 == 1 {
		return s.v[n/2]
	}
	return (s.v[n/2-1] + s.v[n/2]) / 2
}

func (s *sample) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

func (s *sample) min() float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	return s.v[0]
}

func (s *sample) max() float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	return s.v[len(s.v)-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples. The
// small tolerance keeps a product such as 99.9/100*10000 = 9990.000000000002
// from rounding up to the next rank.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// tailCandidates are the percentiles a latency may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile is the reporting rule for a tail: the highest candidate
// percentile that still has at least ten samples beyond it. With fewer than
// twenty samples even the median does not qualify, and it reports 0.
func highestPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// growth is the last-quarter over first-quarter median of a series in
// arrival order: >1 means the operation got slower as the run went on.
func growth(series []float64) float64 {
	q := len(series) / 4
	if q == 0 {
		return 0
	}
	first := sample{v: append([]float64(nil), series[:q]...)}
	last := sample{v: append([]float64(nil), series[len(series)-q:]...)}
	if first.median() == 0 {
		return 0
	}
	return last.median() / first.median()
}

// quartileSpread is the inter-quartile distance over the median, with the
// quartiles of Python's statistics.quantiles(values, n=4) (exclusive
// method), which is what the driver computes.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	q := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return v[j-1] + delta*(v[j]-v[j-1])
	}
	s := sample{v: v, sorted: true}
	med := s.median()
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
