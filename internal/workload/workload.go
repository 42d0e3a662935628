// Package workload generates the sporadic job arrival processes the
// experiments use: Poisson arrivals per site, DAGs drawn from a configurable
// mix of shapes, and deadlines assigned as a tightness multiple of each
// DAG's critical path (the standard methodology of the real-time scheduling
// literature the paper builds on, e.g. Ramamritham–Stankovic [10]).
//
// Everything is deterministic given the seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/graph"
)

// Arrival is one job arrival.
type Arrival struct {
	At       float64 // epoch-relative arrival time
	Origin   graph.NodeID
	Graph    *dag.Graph
	Deadline float64 // relative deadline
}

// Spec describes a workload.
type Spec struct {
	Sites       int     // number of sites jobs may arrive at
	Horizon     float64 // arrivals occur in [0, Horizon)
	RatePerSite float64 // Poisson arrival rate λ per site (jobs per time unit)

	Kinds    []daggen.Kind // DAG shape mix (uniform); nil = all kinds
	TaskSize int           // approximate tasks per DAG
	Params   daggen.Params // task complexity range

	// Tightness multiplies the DAG's critical path to produce the relative
	// deadline: d − r = Tightness · CP. TightnessJitter adds ±jitter
	// uniformly.
	Tightness       float64
	TightnessJitter float64

	Seed int64
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if s.Sites <= 0 {
		return fmt.Errorf("workload: no sites")
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("workload: non-positive horizon")
	}
	if s.RatePerSite <= 0 {
		return fmt.Errorf("workload: non-positive rate")
	}
	if s.TaskSize <= 0 {
		return fmt.Errorf("workload: non-positive task size")
	}
	if s.Tightness <= 0 {
		return fmt.Errorf("workload: non-positive tightness")
	}
	return nil
}

// Generate draws the arrival sequence, sorted by arrival time.
func Generate(s Spec) ([]Arrival, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kinds := s.Kinds
	if len(kinds) == 0 {
		kinds = daggen.AllKinds
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var out []Arrival
	for site := 0; site < s.Sites; site++ {
		t := 0.0
		for {
			// Exponential inter-arrival times: Poisson process.
			t += rng.ExpFloat64() / s.RatePerSite
			if t >= s.Horizon {
				break
			}
			kind := kinds[rng.Intn(len(kinds))]
			g, err := daggen.Generate(kind, s.TaskSize, s.Params, rng.Int63())
			if err != nil {
				return nil, err
			}
			tight := s.Tightness
			if s.TightnessJitter > 0 {
				tight += (rng.Float64()*2 - 1) * s.TightnessJitter
				if tight < 0.1 {
					tight = 0.1
				}
			}
			out = append(out, Arrival{
				At:       t,
				Origin:   graph.NodeID(site),
				Graph:    g,
				Deadline: g.CriticalPathLength() * tight,
			})
		}
	}
	sortArrivals(out)
	return out, nil
}

func sortArrivals(a []Arrival) {
	// Insertion-stable sort by time, then origin, then name — deterministic.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func less(x, y Arrival) bool {
	if x.At != y.At {
		return x.At < y.At
	}
	if x.Origin != y.Origin {
		return x.Origin < y.Origin
	}
	return x.Graph.Name < y.Graph.Name
}

// OfferedLoad estimates the system load of an arrival sequence: total work
// divided by total processing capacity over the horizon.
func OfferedLoad(arrivals []Arrival, sites int, horizon float64) float64 {
	if sites <= 0 || horizon <= 0 {
		return 0
	}
	var work float64
	for _, a := range arrivals {
		work += a.Graph.TotalComplexity()
	}
	return work / (float64(sites) * horizon)
}

// RateForLoad inverts OfferedLoad: the per-site Poisson rate that produces
// approximately the requested load, given the expected work per job.
func RateForLoad(load, expectedWorkPerJob float64) float64 {
	if expectedWorkPerJob <= 0 {
		return 0
	}
	return load / expectedWorkPerJob
}

// ExpectedWorkPerJob estimates the mean total complexity of jobs drawn from
// the spec's mix by sampling.
func ExpectedWorkPerJob(s Spec, samples int) float64 {
	kinds := s.Kinds
	if len(kinds) == 0 {
		kinds = daggen.AllKinds
	}
	if samples <= 0 {
		samples = 100
	}
	rng := rand.New(rand.NewSource(s.Seed + 1))
	var sum float64
	n := 0
	for i := 0; i < samples; i++ {
		kind := kinds[i%len(kinds)]
		g, err := daggen.Generate(kind, s.TaskSize, s.Params, rng.Int63())
		if err != nil {
			continue
		}
		sum += g.TotalComplexity()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
