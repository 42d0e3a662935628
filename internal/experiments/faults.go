package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/simnet"
)

// E12 — graceful degradation under adverse network conditions, the
// operational regime of an "arbitrary wide network" that the clean-run
// experiments never exercise. A seeded fault plan injects per-traversal
// message loss, delay jitter and permanent site crashes; the sweep
// measures, per (loss rate, crash count) cell:
//
//   - the guarantee ratio of RTDS, the BroadcastSphere baseline and the
//     focused-addressing/bidding baseline on the same faulty network;
//   - how many jobs end undecided (their initiator crashed mid-protocol);
//   - the abort-stage breakdown of the defensive machinery: enrollments
//     that closed empty, validations and commits resolved by their
//     timeouts, and ordinary commit refusals;
//   - the dropped-traversal and disruption counts, tying the degradation
//     back to the injected fault intensity.
//
// Every run must terminate with all locks released (the DES would otherwise
// never drain and the run would hit the event limit): the experiment doubles
// as a liveness stress for the timeout/lease/retransmission paths. One
// point per loss rate; each point contributes one row per crash count.
var e12Loss = []float64{0, 0.05, 0.1, 0.2}

func e12CrashCounts(size Size) []int {
	if size == Full {
		return []int{0, 1, 2}
	}
	return []int{0, 1}
}

func e12Table(size Size) *Table {
	return NewTable(
		fmt.Sprintf("E12 — fault tolerance (%d sites, load 0.6): guarantee ratio and abort stages vs loss/crashes", size.sites()),
		"loss", "crashes", "rtds", "broadcast", "fa-bidding", "undecided",
		"rej empty-acs", "rej validate-to", "rej commit-to", "rej commit", "dropped", "disrupted")
}

// e12Plan derives the deterministic fault plan of one sweep cell. Crash
// victims are drawn from a cell-specific seed and crash permanently at
// times spread over the horizon, so early jobs see a healthy network and
// late jobs must route around the dead sites once e12Detector notices.
// Lossy cells also carry delay jitter (a lossy network is a jittery one);
// the loss-free cells stay jitter-free so the (0, 0) cell is a true
// faultless control and the (0, k) column isolates pure crash effects.
func e12Plan(seed int64, point, crashes int, loss, horizon float64, sites int) *simnet.FaultPlan {
	jitter := 0.0
	if loss > 0 {
		jitter = 0.05
	}
	plan := &simnet.FaultPlan{
		Seed:      seed*1000 + int64(point*10+crashes),
		Loss:      loss,
		MaxJitter: jitter,
	}
	if crashes > 0 {
		rng := rand.New(rand.NewSource(plan.Seed + 1))
		victims := rng.Perm(sites)[:crashes]
		for i, v := range victims {
			plan.Crashes = append(plan.Crashes, simnet.Crash{
				Site: graph.NodeID(v),
				At:   horizon * float64(i+1) / float64(crashes+1),
			})
		}
	}
	return plan
}

// e12Detector is the sweep's failure-detection timing: suspicion after 2
// time units of silence, three heartbeats per suspicion window. It is armed
// only in cells that crash a site — heartbeats in a loss-only cell would
// move msgs/job, dropped and the event count — and leaves the flood budget
// (derived from the radius) and the horizon (from the plan) to core.
func e12Detector(crashes int) func(*core.Config) {
	if crashes == 0 {
		return nil
	}
	suspect := 2.0
	return func(c *core.Config) {
		c.Membership = membership.Config{Enabled: true, SuspectAfter: suspect, HeartbeatEvery: suspect / 3}
	}
}

func e12Row(env *runEnv, size Size, seed int64, point int) ([][]any, error) {
	loss := e12Loss[point]
	var rows [][]any
	// One topology and arrival sequence per loss level: within a point the
	// crash column isolates the effect of dead sites on identical traffic.
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed+int64(point*100))
	arrivals, err := ArrivalsForLoad(spec, 0.6)
	if err != nil {
		return nil, err
	}
	for _, crashes := range e12CrashCounts(size) {
		plan := e12Plan(seed, point, crashes, loss, size.horizon(), size.sites())

		detect := e12Detector(crashes)

		rtds, err := env.run("rtds", topo, scheme.Config{Faults: plan, Tune: detect}, arrivals)
		if err != nil {
			return nil, err
		}
		bcast, err := env.run("broadcast", topo, scheme.Config{Faults: plan, Tune: detect}, arrivals)
		if err != nil {
			return nil, err
		}
		fab, err := env.run("fab", topo, scheme.Config{Horizon: size.horizon(), Faults: plan}, arrivals)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []any{
			loss, crashes, rtds.GuaranteeRatio, bcast.GuaranteeRatio, fab.GuaranteeRatio,
			rtds.Core.Undecided,
			rtds.Core.RejectedByStage[core.StageEmptyACS],
			rtds.Core.RejectedByStage[core.StageValidateTimeout],
			rtds.Core.RejectedByStage[core.StageCommitTimeout],
			rtds.Core.RejectedByStage[core.StageCommit],
			rtds.Core.Dropped,
			rtds.Core.Disruptions,
		})
	}
	return rows, nil
}
