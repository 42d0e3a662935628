package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/simnet"
)

// e14ChurnCounts is the churn axis (one shard per point): how many sites
// crash during the run.
func e14ChurnCounts(size Size) []int {
	if size == Full {
		return []int{0, 1, 2}
	}
	return []int{0, 1}
}

func e14Shards(size Size) int { return len(e14ChurnCounts(size)) }

// e14Membership pins the membership timing for every E14 cell so the sweep
// measures churn, not parameter drift: 1-unit heartbeats, 3-unit suspicion,
// and a horizon that outlives the last possible recovery.
func e14Membership(size Size) membership.Config {
	return membership.Config{
		Enabled:        true,
		HeartbeatEvery: 1,
		SuspectAfter:   3,
		Horizon:        size.horizon() + 20,
	}
}

func e14Table(size Size) *metrics.Table {
	return metrics.NewTable(
		fmt.Sprintf("E14 — churn (%d sites, load 0.6): crash+rejoin via distributed membership", size.sites()),
		"crashes", "rejoin", "rtds", "broadcast", "fa-bidding", "undecided",
		"rej empty-acs", "rej validate-to", "rej commit-to",
		"views", "deaths", "resurrect", "control msgs", "disrupted")
}

// e14Plan derives one cell's deterministic churn plan: crash victims drawn
// from a cell-specific seed, crash times spread over the horizon. With
// rejoin each outage lasts a quarter horizon and the site then resumes
// heartbeating (the membership layer resurrects it); without, crashes are
// permanent. Detection latency is a property of the membership timing
// (e14's explicit Config.Membership), not of the plan.
func e14Plan(seed int64, churn int, rejoin bool, horizon float64, sites int) *simnet.FaultPlan {
	plan := &simnet.FaultPlan{Seed: seed*1000 + int64(churn)}
	if churn == 0 {
		return plan
	}
	rng := rand.New(rand.NewSource(plan.Seed + 1))
	victims := rng.Perm(sites)[:churn]
	for i, v := range victims {
		cr := simnet.Crash{
			Site: graph.NodeID(v),
			At:   horizon * float64(i+1) / float64(churn+1),
		}
		if rejoin {
			cr.For = horizon / 4
		}
		plan.Crashes = append(plan.Crashes, cr)
	}
	return plan
}

func e14Row(env *runEnv, size Size, seed int64, shard int) ([][]any, error) {
	churn := e14ChurnCounts(size)[shard]
	var rows [][]any
	// One topology and arrival sequence per churn level: within a shard the
	// rejoin column isolates the effect of recovery on identical traffic.
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed+int64(shard*100))
	arrivals, err := ArrivalsForLoad(spec, 0.6)
	if err != nil {
		return nil, err
	}
	mcfg := e14Membership(size)
	withMembership := func(c *core.Config) { c.Membership = mcfg }
	for _, rejoin := range []bool{false, true} {
		if churn == 0 && rejoin {
			continue // nothing to rejoin: the control row runs once
		}
		plan := e14Plan(seed, churn, rejoin, size.horizon(), size.sites())

		rtdsCluster, err := env.runCluster("rtds", topo,
			scheme.Config{Faults: plan, Tune: withMembership}, arrivals)
		if err != nil {
			return nil, err
		}
		rtds := rtdsCluster.Summarize()
		bcast, err := env.run("broadcast", topo,
			scheme.Config{Faults: plan, Tune: withMembership}, arrivals)
		if err != nil {
			return nil, err
		}
		fab, err := env.run("fab", topo,
			scheme.Config{Horizon: size.horizon(), Faults: plan}, arrivals)
		if err != nil {
			return nil, err
		}

		// Membership outcome of the RTDS run, measured over the SURVIVORS
		// (a permanently crashed site is partitioned: it declares its own
		// neighbors dead and its view legitimately diverges, so folding it
		// in would misreport convergence): the number of distinct route
		// epochs among survivors (1 = fully converged views), the deaths
		// each applied, and the resurrections cluster-wide (0 without
		// rejoin).
		permDead := make(map[graph.NodeID]bool)
		for _, cr := range plan.Crashes {
			if cr.Permanent() {
				permDead[cr.Site] = true
			}
		}
		views := make(map[uint64]bool)
		deaths, resurrect := 0, 0
		for _, s := range rtdsCluster.(scheme.CoreBacked).Core().MembershipSnapshots() {
			if permDead[s.Self] {
				continue
			}
			views[s.Epoch] = true
			if s.Deaths > deaths {
				deaths = s.Deaths
			}
			resurrect += s.Resurrections
		}

		rows = append(rows, []any{
			churn, rejoin, rtds.GuaranteeRatio, bcast.GuaranteeRatio, fab.GuaranteeRatio,
			rtds.Core.Undecided,
			rtds.Core.RejectedByStage[core.StageEmptyACS],
			rtds.Core.RejectedByStage[core.StageValidateTimeout],
			rtds.Core.RejectedByStage[core.StageCommitTimeout],
			len(views),
			deaths,
			resurrect,
			rtds.Core.ControlMessages,
			rtds.Core.Disruptions,
		})
	}
	return rows, nil
}

func e14Churn(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	return runShardsSerially(env, size, seed, e14Shards, e14Table, e14Row)
}

// E14Churn evaluates the dynamic-membership subsystem end to end: sites
// crash mid-run (and, in the rejoin rows, come back), and every repair —
// failure detection, epoch-tagged table re-floods, resurrection — happens
// through the wire protocol rather than the old scripted oracle. Per
// (crash count, rejoin) cell the sweep reports:
//
//   - the guarantee ratio of RTDS, the BroadcastSphere ablation and the
//     focused-addressing/bidding baseline on the same churning network;
//   - the abort-stage breakdown of jobs caught by the churn (enrollments
//     that closed empty against dead members, validations and commits
//     resolved by their timeouts);
//   - the membership outcome: the route epoch the survivors converged to,
//     the number of resurrections applied, and the control-plane traffic
//     (heartbeats, notices, repair floods) the protocol spent — the price
//     of owning failure knowledge instead of being handed it.
//
// Rejoin rows recover capacity: their late-run guarantee ratio reflects
// the resurrected sites serving enrollments again. Every run must drain
// with all locks released; like E12 the experiment doubles as a liveness
// stress, now for the repair and join paths.
func E14Churn(size Size, seed int64) (*metrics.Table, error) {
	return e14Churn(new(runEnv), size, seed)
}
