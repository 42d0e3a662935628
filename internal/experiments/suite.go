package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/policy"
	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// Size selects experiment scale: quick sizes for tests, full sizes for the
// benchmark harness and cmd/rtds-bench.
type Size int

const (
	// Quick shrinks networks and horizons so the whole suite runs in
	// seconds; trends remain visible but noisier.
	Quick Size = iota
	// Full is the EXPERIMENTS.md configuration.
	Full
)

func (s Size) sites() int {
	if s == Quick {
		return 16
	}
	return 32
}

func (s Size) horizon() float64 {
	if s == Quick {
		return 150
	}
	return 400
}

// StdDelays are the link delays used throughout the suite: small relative
// to task durations (0.5–5), as in a loosely coupled LAN/WAN where protocol
// latency matters but does not dominate execution. Exported so the CLIs
// draw the same workload shape instead of re-hardcoding it.
var StdDelays = graph.DelayRange{Min: 0.05, Max: 0.3}

// StdSpec is the suite's common workload shape; callers override
// rate/tightness (the CLIs reuse it so “the suite's workload” means one
// thing).
func StdSpec(sites int, horizon float64, seed int64) workload.Spec {
	return workload.Spec{
		Sites:       sites,
		Horizon:     horizon,
		RatePerSite: 0.02,
		TaskSize:    8,
		Params:      daggen.Params{MinComplexity: 0.5, MaxComplexity: 5},
		Tightness:   2.5,
		Seed:        seed,
	}
}

// runCluster builds a named scheme from the registry, drives a full run
// over an arrival sequence and records the simulation's event count against
// the enclosing suite task. The cluster is returned for experiments that
// read scheme-specific metrics (bootstrap cost, sphere sizes).
func (env *runEnv) runCluster(name string, topo *graph.Graph, cfg scheme.Config, arrivals []workload.Arrival) (scheme.Cluster, error) {
	if cfg.KernelWorkers == 0 {
		cfg.KernelWorkers = env.kernelWorkers
	}
	start := time.Now() //lint:allow wallclock -- events/sec accounting for the CI bench gate; never enters simulation state
	c, err := scheme.MustGet(name).Build(topo, cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range arrivals {
		if err := c.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			return nil, err
		}
	}
	err = c.Run()
	//lint:allow wallclock -- events/sec accounting for the CI bench gate; never enters simulation state
	env.note(c.EventsProcessed(), time.Since(start))
	if err != nil {
		return nil, err
	}
	return c, nil
}

// run is runCluster plus the summary — the shape most experiments need.
func (env *runEnv) run(name string, topo *graph.Graph, cfg scheme.Config, arrivals []workload.Arrival) (scheme.Result, error) {
	c, err := env.runCluster(name, topo, cfg, arrivals)
	if err != nil {
		return scheme.Result{}, err
	}
	return c.Summarize(), nil
}

// tuned is shorthand for a scheme.Config that only overrides the core
// configuration (the common case in sweeps).
func tuned(tune func(*core.Config)) scheme.Config {
	return scheme.Config{Tune: tune}
}

// ArrivalsForLoad draws a workload whose offered load approximates `load`.
func ArrivalsForLoad(spec workload.Spec, load float64) ([]workload.Arrival, error) {
	work := workload.ExpectedWorkPerJob(spec, 200)
	spec.RatePerSite = workload.RateForLoad(load, work)
	return workload.Generate(spec)
}

// E1GuaranteeVsLoad: guarantee ratio as offered load grows, RTDS vs
// LocalOnly vs BroadcastSphere vs Focused-Addressing/Bidding. Sharded per
// load point: every row derives all state from (seed, load) alone.
var e1Loads = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}

func e1Shards(Size) int { return len(e1Loads) }

func e1Table(size Size) *metrics.Table {
	return metrics.NewTable(
		fmt.Sprintf("E1 — guarantee ratio vs offered load (%d sites, h=3, tightness 2.5)", size.sites()),
		"load", "oracle", "rtds", "local-only", "broadcast", "fa-bidding")
}

func e1Row(env *runEnv, size Size, seed int64, shard int) ([][]any, error) {
	load := e1Loads[shard]
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed+int64(load*100))
	arrivals, err := ArrivalsForLoad(spec, load)
	if err != nil {
		return nil, err
	}
	rtds, err := env.run("rtds", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, err
	}
	local, err := env.run("local", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, err
	}
	bcast, err := env.run("broadcast", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, err
	}
	fab, err := env.run("fab", topo, scheme.Config{Horizon: size.horizon()}, arrivals)
	if err != nil {
		return nil, err
	}
	oracle, err := env.run("oracle", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, err
	}
	return [][]any{{load, oracle.GuaranteeRatio, rtds.GuaranteeRatio,
		local.GuaranteeRatio, bcast.GuaranteeRatio, fab.GuaranteeRatio}}, nil
}

func e1GuaranteeVsLoad(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	return runShardsSerially(env, size, seed, e1Shards, e1Table, e1Row)
}

// E2MessagesVsNetworkSize: communication cost per job as the network grows —
// the paper's central claim: spheres keep traffic bounded while broadcast
// schemes scale with N. Sharded per network size — the 128-site point costs
// orders of magnitude more than the 8-site point, so row-level fan-out is
// what lets the pool balance the suite.
func e2Sizes(size Size) []int {
	if size == Full {
		return []int{8, 16, 32, 64, 128}
	}
	return []int{8, 16, 32}
}

func e2Shards(size Size) int { return len(e2Sizes(size)) }

func e2Table(Size) *metrics.Table {
	return metrics.NewTable(
		"E2 — messages per job vs network size (load 0.6, h=2)",
		"sites", "rtds msgs/job", "broadcast msgs/job", "fa-bidding msgs/job", "rtds ratio", "broadcast ratio")
}

func e2Row(env *runEnv, size Size, seed int64, shard int) ([][]any, error) {
	n := e2Sizes(size)[shard]
	topo := graph.RandomConnected(n, 3, StdDelays, seed+int64(n))
	spec := StdSpec(n, size.horizon(), seed+int64(n))
	arrivals, err := ArrivalsForLoad(spec, 0.6)
	if err != nil {
		return nil, err
	}
	// The three schemes are independent simulations over the same arrival
	// sequence; at 128 sites the broadcast run alone costs seconds, so run
	// them concurrently instead of back to back — otherwise this one shard
	// bounds the whole suite's parallel wall time.
	var rtds, bcast, fab scheme.Result
	errs := make([]error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		// h=2 keeps the sphere well below the network size at every point
		// of the sweep, which is the regime the paper's locality argument
		// addresses.
		rtds, errs[0] = env.run("rtds", topo, tuned(func(c *core.Config) { c.Radius = 2 }), arrivals)
	}()
	go func() {
		defer wg.Done()
		bcast, errs[1] = env.run("broadcast", topo, scheme.Config{}, arrivals)
	}()
	go func() {
		defer wg.Done()
		fab, errs[2] = env.run("fab", topo, scheme.Config{Horizon: size.horizon()}, arrivals)
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return [][]any{{n, rtds.MessagesPerJob, bcast.MessagesPerJob, fab.MessagesPerJob,
		rtds.GuaranteeRatio, bcast.GuaranteeRatio}}, nil
}

func e2MessagesVsNetworkSize(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	return runShardsSerially(env, size, seed, e2Shards, e2Table, e2Row)
}

// E3SphereRadius: the locality trade-off of the Computing Sphere concept.
func e3SphereRadius(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed)
	arrivals, err := ArrivalsForLoad(spec, 0.8)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("E3 — sphere radius trade-off (%d sites, load 0.8)", size.sites()),
		"h", "ratio", "msgs/job", "mean ACS", "bootstrap msgs")
	for h := 1; h <= 5; h++ {
		h := h
		c, err := env.runCluster("rtds", topo, tuned(func(cc *core.Config) { cc.Radius = h }), arrivals)
		if err != nil {
			return nil, fmt.Errorf("h=%d: %w", h, err)
		}
		sum := c.Summarize()
		bootMsgs, _ := c.(scheme.Bootstrapper).BootstrapCost()
		tbl.AddRow(h, sum.GuaranteeRatio, sum.MessagesPerJob, sum.Core.MeanACSSize, bootMsgs)
	}
	return tbl, nil
}

// E4DeadlineTightness: admission quality of the window adjustment
// (eqs. 3–5) as deadlines tighten. Sharded per tightness point.
var e4Tightness = []float64{1.2, 1.5, 2, 3, 4, 6}

func e4Shards(Size) int { return len(e4Tightness) }

func e4Table(size Size) *metrics.Table {
	return metrics.NewTable(
		fmt.Sprintf("E4 — guarantee ratio vs deadline tightness (%d sites, load 0.6)", size.sites()),
		"tightness", "rtds", "local-only")
}

func e4Row(env *runEnv, size Size, seed int64, shard int) ([][]any, error) {
	tight := e4Tightness[shard]
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed+int64(tight*10))
	spec.Tightness = tight
	arrivals, err := ArrivalsForLoad(spec, 0.6)
	if err != nil {
		return nil, err
	}
	rtds, err := env.run("rtds", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, err
	}
	local, err := env.run("local", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, err
	}
	return [][]any{{tight, rtds.GuaranteeRatio, local.GuaranteeRatio}}, nil
}

func e4DeadlineTightness(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	return runShardsSerially(env, size, seed, e4Shards, e4Table, e4Row)
}

// E5LaxityDispatch: §13's busyness-weighted laxity scattering vs the
// uniform ℓ of §12.2. The policy only acts in case (iii), so this
// experiment drives the mapper directly on windows forced between M* and M
// and measures (a) how often the adjusted windows stay self-consistent and
// (b) how much slack tasks on the busiest processor receive — the quantity
// the weighted variant is designed to increase.
func e5LaxityDispatch(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	trials := 300
	if size == Full {
		trials = 2000
	}
	procs := []mapper.ProcInfo{
		{Site: 0, Surplus: 0.9},
		{Site: 1, Surplus: 0.6},
		{Site: 2, Surplus: 0.25},
	}
	busiest := 2 // index of the lowest-surplus processor
	tbl := metrics.NewTable(
		fmt.Sprintf("E5 — laxity dispatching in case (iii), %d random DAGs", trials),
		"mode", "case-iii", "consistent", "busy-proc slack", "idle-proc slack")
	for _, mode := range []mapper.LaxityMode{mapper.LaxityUniform, mapper.LaxityBusynessWeighted} {
		caseIII, consistent := 0, 0
		var busySlack, idleSlack metrics.Sample
		for trial := 0; trial < trials; trial++ {
			g := daggen.Layered(4+trial%4, 3, 0.25,
				daggen.Params{MinComplexity: 1, MaxComplexity: 6}, seed+int64(trial))
			// Probe with a loose window to learn M and M*.
			probe, err := mapper.Build(g, procs, 1, 0, 1e9, mapper.Options{LaxityMode: mode})
			if err != nil {
				continue
			}
			if probe.Makespan <= probe.IdealMakespan+1e-9 {
				continue // cases (ii) and (iii) coincide, nothing to measure
			}
			// Force case (iii): window strictly between M* and M.
			d := probe.IdealMakespan + 0.6*(probe.Makespan-probe.IdealMakespan)
			m, err := mapper.Build(g, procs, 1, 0, d, mapper.Options{LaxityMode: mode})
			if err != nil {
				if err == mapper.ErrInconsistentWindows {
					caseIII++
				}
				continue
			}
			if m.Case != mapper.CaseLaxity {
				continue
			}
			caseIII++
			consistent++
			for _, id := range g.TaskIDs() {
				a := m.Assign[id]
				slack := (m.Deadline[id] - m.Release[id]) - (a.IdealFinish - a.IdealStart)
				if m.Procs[a.Proc].Site == procs[busiest].Site {
					busySlack.Add(slack)
				} else {
					idleSlack.Add(slack)
				}
			}
		}
		rate := 0.0
		if caseIII > 0 {
			rate = float64(consistent) / float64(caseIII)
		}
		tbl.AddRow(mode.String(), caseIII, rate, busySlack.Mean(), idleSlack.Mean())
	}
	return tbl, nil
}

// E6UniformMachines: the §13 related-machines extension — heterogeneous
// computing powers with the same aggregate capacity.
func e6UniformMachines(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed)
	arrivals, err := ArrivalsForLoad(spec, 0.7)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E6 — identical vs uniform (related) machines, equal aggregate capacity",
		"machines", "ratio", "accepted-dist")

	identical, err := env.run("rtds", topo, scheme.Config{}, arrivals)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("identical", identical.GuaranteeRatio, identical.Core.AcceptedDistributed)

	// Heterogeneous powers in [0.5, 1.5], normalized to mean 1.
	rng := rand.New(rand.NewSource(seed + 7))
	powers := make([]float64, size.sites())
	var sum float64
	for i := range powers {
		powers[i] = 0.5 + rng.Float64()
		sum += powers[i]
	}
	for i := range powers {
		powers[i] *= float64(len(powers)) / sum
	}
	hetero, err := env.run("rtds", topo, tuned(func(c *core.Config) { c.Powers = powers }), arrivals)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("uniform(0.5-1.5x)", hetero.GuaranteeRatio, hetero.Core.AcceptedDistributed)
	return tbl, nil
}

// E7Preemption: the §13 preemptive case against the non-preemptive default.
func e7Preemption(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed)
	spec.Tightness = 1.8
	arrivals, err := ArrivalsForLoad(spec, 0.8)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E7 — preemptive vs non-preemptive local scheduler (tightness 1.8, load 0.8)",
		"scheduler", "ratio", "accepted-local", "accepted-dist")
	for _, pre := range []bool{false, true} {
		pre := pre
		sum, err := env.run("rtds", topo, tuned(func(c *core.Config) { c.Preemptive = pre }), arrivals)
		if err != nil {
			return nil, err
		}
		name := "non-preemptive"
		if pre {
			name = "preemptive-EDF"
		}
		tbl.AddRow(name, sum.GuaranteeRatio, sum.Core.AcceptedLocal, sum.Core.AcceptedDistributed)
	}
	return tbl, nil
}

// E8MapperHeuristics: §9 says "almost any heuristic can be adapted"; this
// ablation compares the paper's CP-EFT instance with two naive selectors.
func e8MapperHeuristics(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed)
	arrivals, err := ArrivalsForLoad(spec, 0.8)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E8 — mapper heuristic ablation (load 0.8)",
		"heuristic", "ratio", "accepted-dist", "msgs/job")
	for _, h := range []mapper.Heuristic{mapper.HeuristicCPEFT, mapper.HeuristicMinMin,
		mapper.HeuristicBestSurplus, mapper.HeuristicRoundRobin} {
		h := h
		sum, err := env.run("rtds", topo, tuned(func(c *core.Config) { c.Policies.Mapper = policy.HeuristicMapper{H: h} }), arrivals)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(h.String(), sum.GuaranteeRatio, sum.Core.AcceptedDistributed, sum.MessagesPerJob)
	}
	return tbl, nil
}

// E11DataVolumes: the §13 data-volume extension — guarantee ratio as
// transfers become more expensive relative to computation. Every DAG edge
// carries a volume; the x axis is the mean transfer time vol/throughput in
// units of mean task duration. Sharded per CCR point.
var e11CCRs = []float64{0, 0.25, 0.5, 1, 2}

func e11Shards(Size) int { return len(e11CCRs) }

func e11Table(size Size) *metrics.Table {
	return metrics.NewTable(
		fmt.Sprintf("E11 — data volumes (%d sites, load 0.6): transfer cost vs guarantee ratio", size.sites()),
		"transfer/compute", "ratio", "accepted-dist", "bytes/job")
}

func e11Row(env *runEnv, size Size, seed int64, shard int) ([][]any, error) {
	ccr := e11CCRs[shard]
	topo := graph.RandomConnected(size.sites(), 3, StdDelays, seed)
	spec := StdSpec(size.sites(), size.horizon(), seed+int64(ccr*100))
	arrivals, err := ArrivalsForLoad(spec, 0.6)
	if err != nil {
		return nil, err
	}
	// Decorate every job's edges with volumes so that, at throughput 1,
	// the mean transfer time is ccr x the mean task complexity.
	meanC := (spec.Params.MinComplexity + spec.Params.MaxComplexity) / 2
	decorated := make([]workload.Arrival, len(arrivals))
	for i, a := range arrivals {
		decorated[i] = a
		decorated[i].Graph = withVolumes(a.Graph, ccr*meanC, seed+int64(i))
	}
	sum, err := env.run("rtds", topo, tuned(func(c *core.Config) {
		if ccr > 0 {
			c.Throughput = 1
		}
	}), decorated)
	if err != nil {
		return nil, err
	}
	bytesPerJob := 0.0
	if sum.Jobs > 0 {
		bytesPerJob = float64(sum.Bytes) / float64(sum.Jobs)
	}
	return [][]any{{ccr, sum.GuaranteeRatio, sum.Core.AcceptedDistributed, bytesPerJob}}, nil
}

func e11DataVolumes(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	return runShardsSerially(env, size, seed, e11Shards, e11Table, e11Row)
}

// withVolumes rebuilds a DAG with every edge carrying a volume drawn
// uniformly from [0.5, 1.5] x meanVol.
func withVolumes(g *dag.Graph, meanVol float64, seed int64) *dag.Graph {
	if meanVol <= 0 {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	b := dag.NewBuilder(g.Name + "+vol")
	for _, t := range g.Tasks() {
		b.AddLabeledTask(t.ID, t.Complexity, t.Label)
	}
	for _, id := range g.TaskIDs() {
		for _, s := range g.Successors(id) {
			b.AddDataEdge(id, s, meanVol*(0.5+rng.Float64()))
		}
	}
	return b.MustBuild()
}

// E9PCSConstruction: the one-time cost of the interrupted distance-vector
// bootstrap (§7) as a function of radius and network size. Sharded per
// network size; each shard contributes the four radius rows of its size.
func e9Sizes(size Size) []int {
	if size == Full {
		return []int{16, 32, 64, 128}
	}
	return []int{16, 32}
}

func e9Shards(size Size) int { return len(e9Sizes(size)) }

func e9Table(Size) *metrics.Table {
	return metrics.NewTable(
		"E9 — PCS construction cost (messages = rounds × 2|E|)",
		"sites", "h", "rounds", "messages", "bytes", "mean sphere")
}

func e9Row(env *runEnv, size Size, seed int64, shard int) ([][]any, error) {
	n := e9Sizes(size)[shard]
	topo := graph.RandomConnected(n, 3, StdDelays, seed+int64(n))
	var rows [][]any
	for _, h := range []int{1, 2, 3, 4} {
		h := h
		// No arrivals: the experiment measures the bootstrap alone.
		c, err := env.runCluster("rtds", topo, tuned(func(cc *core.Config) { cc.Radius = h }), nil)
		if err != nil {
			return nil, err
		}
		msgs, bytes := c.(scheme.Bootstrapper).BootstrapCost()
		cluster := c.(scheme.CoreBacked).Core()
		var sphereSum float64
		for id := 0; id < n; id++ {
			sphereSum += float64(len(cluster.SiteSphere(graph.NodeID(id))))
		}
		rows = append(rows, []any{n, h, 2*h - 1, msgs, bytes, sphereSum / float64(n)})
	}
	return rows, nil
}

func e9PCSConstruction(env *runEnv, size Size, seed int64) (*metrics.Table, error) {
	return runShardsSerially(env, size, seed, e9Shards, e9Table, e9Row)
}

// ---------------------------------------------------------------------------
// Exported experiment entry points. Each wrapper runs the experiment with
// fresh instrumentation; the suite runner invokes the env-taking variants
// directly so it can attribute events/sec per task.

// E1GuaranteeVsLoad runs E1 standalone.
func E1GuaranteeVsLoad(size Size, seed int64) (*metrics.Table, error) {
	return e1GuaranteeVsLoad(new(runEnv), size, seed)
}

// E2MessagesVsNetworkSize runs E2 standalone.
func E2MessagesVsNetworkSize(size Size, seed int64) (*metrics.Table, error) {
	return e2MessagesVsNetworkSize(new(runEnv), size, seed)
}

// E3SphereRadius runs E3 standalone.
func E3SphereRadius(size Size, seed int64) (*metrics.Table, error) {
	return e3SphereRadius(new(runEnv), size, seed)
}

// E4DeadlineTightness runs E4 standalone.
func E4DeadlineTightness(size Size, seed int64) (*metrics.Table, error) {
	return e4DeadlineTightness(new(runEnv), size, seed)
}

// E5LaxityDispatch runs E5 standalone.
func E5LaxityDispatch(size Size, seed int64) (*metrics.Table, error) {
	return e5LaxityDispatch(new(runEnv), size, seed)
}

// E6UniformMachines runs E6 standalone.
func E6UniformMachines(size Size, seed int64) (*metrics.Table, error) {
	return e6UniformMachines(new(runEnv), size, seed)
}

// E7Preemption runs E7 standalone.
func E7Preemption(size Size, seed int64) (*metrics.Table, error) {
	return e7Preemption(new(runEnv), size, seed)
}

// E8MapperHeuristics runs E8 standalone.
func E8MapperHeuristics(size Size, seed int64) (*metrics.Table, error) {
	return e8MapperHeuristics(new(runEnv), size, seed)
}

// E9PCSConstruction runs E9 standalone.
func E9PCSConstruction(size Size, seed int64) (*metrics.Table, error) {
	return e9PCSConstruction(new(runEnv), size, seed)
}

// E11DataVolumes runs E11 standalone.
func E11DataVolumes(size Size, seed int64) (*metrics.Table, error) {
	return e11DataVolumes(new(runEnv), size, seed)
}
