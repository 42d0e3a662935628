package experiments

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/verify"
	"repro/internal/workload"
)

// checkHierLoaded runs rtds-hier on the 64-site random topology at an
// offered load, with the workload shape of the benchmark's DES workloads
// (arrival rate calibrated once from seed 1's sample, arrivals drawn from
// seed), and fails on every broken guarantee: a Run error, a recorded
// violation, or a finding of the independent schedule oracle.
func checkHierLoaded(t *testing.T, load float64, seed int64) {
	const sites = 64
	topo, err := graph.Generate(graph.TopoRandom, sites, StdDelays, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec := StdSpec(sites, 400, 1)
	spec.RatePerSite = workload.RateForLoad(load, workload.ExpectedWorkPerJob(spec, 4000))
	spec.Seed = seed
	arrivals, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := scheme.MustGet("rtds-hier").Build(topo, scheme.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		if err := cluster.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Run(); err != nil {
		t.Errorf("Run: %v", err)
	}
	cc := cluster.(scheme.CoreBacked).Core()
	if v := cc.Violations(); len(v) > 0 {
		t.Errorf("%d violations, first: %s", len(v), v[0])
	}
	if errs := verify.CheckCluster(cc, topo, 0, false); len(errs) > 0 {
		t.Errorf("verify: %d errors, first: %v", len(errs), errs[0])
	}
}

// TestHierLoadedKeepsGuarantees: rtds-hier keeps every guarantee it gives
// on loaded 64-site networks. The first three points are the ones an
// enrollment that left its region broke (its ω was the distance to a
// foreign landmark, not the routed delay, so a result arrived after its
// successor started); the seeds after them guard the same property more
// widely.
func TestHierLoadedKeepsGuarantees(t *testing.T) {
	type point struct {
		load float64
		seed int64
	}
	points := []point{{0.8, 5}, {0.8, 53}, {0.5, 6}}
	if !testing.Short() {
		points = append(points, point{0.8, 1}, point{0.8, 2}, point{0.8, 3}, point{0.8, 4}, point{0.8, 6})
	}
	for _, p := range points {
		t.Run(fmt.Sprintf("load%.1f/seed%d", p.load, p.seed), func(t *testing.T) {
			checkHierLoaded(t, p.load, p.seed)
		})
	}
}
