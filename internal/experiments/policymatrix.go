package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/core/policy"
	"repro/internal/graph"
)

// E13 sweeps the policy layer's axes — sphere growth (radius),
// local acceptance (EDF vs the laxity-threshold admission), and enrollment
// redundancy (full sphere vs k-redundant fan-out) — over the topology kinds
// graph.Generate supports but the random-graph suite never exercises:
// torus, hypercube and random-geometric. One point per topology; every row
// derives all state from (seed, topology) alone, so serial and parallel
// runs are byte-identical.
//
// What to look for: on the regular topologies (torus, hypercube) a radius
// step changes the sphere size in large quanta, so the redundancy cap is
// what separates protocol cost from guarantee quality; the laxity-threshold
// acceptance trades local admissions for distributed ones, which pays only
// where the sphere has spare surplus.
var e13Topos = []graph.TopologyKind{graph.TopoTorus, graph.TopoHypercube, graph.TopoGeometric}

// e13Combo is one cell of the policy matrix.
type e13Combo struct {
	radius int
	accept policy.Acceptance
	sphere policy.Sphere
}

func e13Combos() []e13Combo {
	var combos []e13Combo
	for _, radius := range []int{2, 3} {
		for _, accept := range []policy.Acceptance{policy.EDF{}, policy.LaxityThreshold{Theta: 0.25}} {
			for _, sphere := range []policy.Sphere{policy.FullSphere{}, policy.KRedundant{K: 6}} {
				combos = append(combos, e13Combo{radius: radius, accept: accept, sphere: sphere})
			}
		}
	}
	return combos
}

func e13Table(size Size) *Table {
	return NewTable(
		fmt.Sprintf("E13 — policy matrix (~%d sites, load 0.6): sphere growth × acceptance × redundancy over torus/hypercube/geometric", size.sites()),
		"topo", "h", "accept", "enroll", "ratio", "accepted-dist", "msgs/job", "mean ACS")
}

func e13Row(env *runEnv, size Size, seed int64, point int) ([][]any, error) {
	kind := e13Topos[point]
	topo, err := graph.Generate(kind, size.sites(), StdDelays, seed+int64(point))
	if err != nil {
		return nil, err
	}
	// Generators round the node count (square sides, powers of two), so the
	// workload is drawn for the realized size.
	spec := StdSpec(topo.Len(), size.horizon(), seed+int64(point*37))
	arrivals, err := ArrivalsForLoad(spec, 0.6)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for _, combo := range e13Combos() {
		combo := combo
		sum, err := env.run("rtds", topo, tuned(func(c *core.Config) {
			c.Radius = combo.radius
			c.Policies = policy.Set{Acceptance: combo.accept, Sphere: combo.sphere}
		}), arrivals)
		if err != nil {
			return nil, fmt.Errorf("%s h=%d %s/%s: %w",
				kind, combo.radius, combo.accept.Name(), combo.sphere.Name(), err)
		}
		rows = append(rows, []any{
			string(kind), combo.radius, combo.accept.Name(), combo.sphere.Name(),
			sum.GuaranteeRatio, sum.Core.AcceptedDistributed, sum.MessagesPerJob,
			sum.Core.MeanACSSize,
		})
	}
	return rows, nil
}
