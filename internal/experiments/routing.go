package experiments

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// E15 is the hierarchical routing sweep: per-site routing state,
// bootstrap rounds, message cost and guarantee ratio of rtds-hier against
// flat rtds as the network grows toward thousands of sites. The flat
// protocol's per-site table is exactly one line per destination (O(n)); the
// hierarchy holds its region's exact table alone (O(√n)), and no message
// crosses a region boundary. One point per network size: the
// 4,096-site point dwarfs the rest.

// e15FlatCap bounds the flat-RTDS comparison runs: beyond it a flat
// cluster's O(n) tables at every one of n sites cost O(n²) memory and the
// comparison column is reported analytically instead (the flat table size
// is exactly 8+16n bytes by construction).
const e15FlatCap = 1024

func e15Sizes(size Size) []int {
	if size == Full {
		return []int{256, 1024, 4096}
	}
	return []int{64, 256}
}

// e15Jobs keeps the sweep's workload a fixed job budget rather than a
// per-site rate: at 4,096 sites the experiment measures routing state and
// locality, not throughput, and a rate-scaled workload would drown the
// point in jobs.
func e15Jobs(size Size) int {
	if size == Full {
		return 192
	}
	return 48
}

func e15Table(Size) *Table {
	return NewTable(
		"E15 — hierarchical scale sweep (√n regions, fixed job budget)",
		"sites", "regions", "hier ratio", "flat ratio", "hier msgs/job", "flat msgs/job",
		"hier table B", "flat table B", "boot rounds", "xregion msgs")
}

// e15Spec is the sweep's workload: a fixed total job budget spread
// uniformly over the sites and a short horizon, standard DAG shape.
func e15Spec(n, jobs int, seed int64) workload.Spec {
	spec := StdSpec(n, 120, seed)
	spec.RatePerSite = float64(jobs) / (float64(n) * spec.Horizon)
	return spec
}

func e15Row(env *runEnv, size Size, seed int64, point int) ([][]any, error) {
	n := e15Sizes(size)[point]
	topo := graph.RandomConnected(n, 4, StdDelays, seed+int64(n))
	arrivals, err := workload.Generate(e15Spec(n, e15Jobs(size), seed+int64(n)))
	if err != nil {
		return nil, err
	}
	hc, err := env.runCluster("rtds-hier", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, fmt.Errorf("rtds-hier at %d sites: %w", n, err)
	}
	hier := hc.Summarize()
	cluster := hc.(scheme.CoreBacked).Core()
	regions := cluster.Layout().Regions
	rounds := cluster.BootstrapRounds()

	// The flat comparison point: a real run below the cap, the analytic
	// table size above it (see e15FlatCap).
	flatRatio, flatMsgs := any("-"), any("-")
	flatBytes := 8 + 16*n
	if n <= e15FlatCap {
		flat, err := env.run("rtds", topo, scheme.Config{}, arrivals)
		if err != nil {
			return nil, fmt.Errorf("rtds at %d sites: %w", n, err)
		}
		flatRatio, flatMsgs = flat.GuaranteeRatio, flat.MessagesPerJob
		flatBytes = flat.Core.RoutingTableBytes
	}
	return [][]any{{n, regions, hier.GuaranteeRatio, flatRatio,
		hier.MessagesPerJob, flatMsgs,
		hier.Core.RoutingTableBytes, flatBytes, rounds,
		hier.Core.CrossRegionMessages}}, nil
}
