package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/verify"
	"repro/internal/workload"
)

// desShape is the fixed part of a DES workload; sizes scale with -seconds.
type desShape struct {
	scheme  string
	sites   int
	load    float64
	horizon float64
	workers int           // kernel workers of the timed pass (0 = serial kernel)
	smoke   bool          // tiny sizes: exercise, do not measure
	perRun  time.Duration // roughly what one sub-run costs on the reference box
}

func desShapeOf(workload string, smoke bool) desShape {
	switch {
	case workload == wlDesStd && smoke:
		return desShape{scheme: "rtds", sites: 16, load: 0.8, horizon: 150, smoke: true}
	case workload == wlDesStd:
		return desShape{scheme: "rtds", sites: 64, load: 0.8, horizon: 6000, perRun: 4 * time.Second}
	case smoke:
		return desShape{scheme: "rtds-hier", sites: 256, load: 0.3, horizon: 60, workers: 2, smoke: true}
	default:
		workers := runtime.NumCPU()
		if workers > 4 {
			workers = 4
		}
		return desShape{scheme: "rtds-hier", sites: 4096, load: 0.3, horizon: 400,
			workers: workers, perRun: 10 * time.Second}
	}
}

// subRuns is how many independent sub-runs (each its own topology, arrivals
// and child) fill the measured time. It depends only on -seconds, so the
// pooled counts of a run are a pure function of (seed, seconds).
func (s desShape) subRuns(seconds int) int {
	if s.perRun <= 0 {
		return 1
	}
	n := int(time.Duration(seconds) * time.Second / s.perRun)
	if n < 1 {
		n = 1
	}
	return n
}

// desInput is everything a DES child receives.
type desInput struct {
	Scheme        string         `json:"scheme"`
	Topo          topoInput      `json:"topo"`
	Arrivals      []arrivalInput `json:"arrivals"`
	KernelWorkers int            `json:"kernel_workers"`
	Traced        bool           `json:"traced"`
	Verify        bool           `json:"verify"`
	ProfilePath   string         `json:"profile_path,omitempty"`
}

// desOutput is a DES child's result.
type desOutput struct {
	Cost      childCost    `json:"cost"`
	Events    int64        `json:"events"`
	Summary   core.Summary `json:"summary"`
	BootMsgs  int64        `json:"boot_msgs"`
	BootBytes int64        `json:"boot_bytes"`
	// Violations are jobs whose guarantee the run broke (a task started
	// without a routed input): failed operations, counted, not hidden.
	Violations []string  `json:"violations,omitempty"`
	Problems   []string  `json:"problems,omitempty"`
	VerifyMs   float64   `json:"verify_ms"`
	Layer      metricSet `json:"layer,omitempty"`
}

// desChild runs one simulation: rebuild the inputs (untimed), build the
// cluster (set-up), submit everything and Run() (timed), then check.
func desChild(pio *childIO) error {
	var in desInput
	if err := pio.read(&in); err != nil {
		return err
	}
	arrivals, err := decodeArrivals(in.Arrivals)
	if err != nil {
		return err
	}
	in.Arrivals = nil
	runtime.GC()

	var pstats policyStats
	cfg := scheme.Config{KernelWorkers: in.KernelWorkers}
	if in.Traced {
		cfg.Tune = func(cc *core.Config) {
			cc.TraceEvents = true
			tracePolicies(cc, &pstats)
		}
	}
	setupStart := time.Now()
	topo, err := in.Topo.build()
	if err != nil {
		return err
	}
	cluster, err := scheme.MustGet(in.Scheme).Build(topo, cfg)
	if err != nil {
		return err
	}
	setup := time.Since(setupStart)
	ready := readUsage()

	stopProfile, err := startProfile(in.ProfilePath)
	if err != nil {
		return err
	}
	defer stopProfile()
	runStart := time.Now()
	for _, a := range arrivals {
		if err := cluster.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			return err
		}
	}
	runErr := cluster.Run()
	run := time.Since(runStart)
	stopProfile()
	end := readUsage()

	cc := cluster.(scheme.CoreBacked).Core()
	res := cluster.Summarize()
	out := desOutput{
		Cost:    costBetween(ready, end, setup, run),
		Events:  cluster.EventsProcessed(),
		Summary: *res.Core,
	}
	out.BootMsgs, out.BootBytes = cc.BootstrapCost()
	out.Violations = cc.Violations()
	if runErr != nil && len(out.Violations) == 0 {
		// With violations the scheme's Run reports just those; any other
		// error (the event limit, a kernel fault) voids the run.
		out.Problems = append(out.Problems, "Run: "+runErr.Error())
	}
	if n := out.Summary.Undecided; n > 0 {
		out.Problems = append(out.Problems, fmt.Sprintf("%d jobs left undecided", n))
	}
	if n := out.Summary.CompletedLate; n > 0 {
		out.Problems = append(out.Problems, fmt.Sprintf("%d accepted jobs completed late", n))
	}
	if in.Verify {
		start := time.Now()
		errs := verify.CheckCluster(cc, topo, 0, false)
		out.VerifyMs = float64(time.Since(start)) / float64(time.Millisecond)
		if len(errs) > 0 {
			out.Problems = append(out.Problems, fmt.Sprintf("verify: %d errors, first: %v", len(errs), errs[0]))
		}
	}
	if in.Traced {
		out.Layer = desLayerMetrics(cc, topo, out, &pstats)
	}
	return pio.result(out)
}

// desLayerMetrics derives the DES-side layer metrics from the finished
// cluster: Summarize(), Events() and the per-site plans. All are counts or
// virtual times, so they repeat exactly at a fixed seed.
func desLayerMetrics(cc *core.Cluster, topo *graph.Graph, out desOutput, pstats *policyStats) metricSet {
	m := metricSet{}
	sum := out.Summary
	jobs := float64(sum.Submitted)
	if jobs == 0 {
		return m
	}
	m["core.events_per_job"] = float64(out.Events) / jobs
	m["core.accept_local_share"] = float64(sum.AcceptedLocal) / jobs
	m["core.accept_dist_share"] = float64(sum.AcceptedDistributed) / jobs
	other := sum.Rejected
	for _, st := range rejectStages[:len(rejectStages)-1] {
		n := sum.RejectedByStage[core.RejectStage(st)]
		m["core.reject_share."+st] = float64(n) / jobs
		other -= n
	}
	m["core.reject_share.other"] = float64(other) / jobs
	m["core.acs_size_mean"] = sum.MeanACSSize
	m["core.decision_latency_vs_mean"] = sum.MeanDecisionLatency

	// Phase boundaries per job from the timeline: enroll -> acs-fixed ->
	// validated -> decided. An escalated job closes its window twice; the
	// last close is the one the mapping ran on.
	type marks struct{ enroll, acs, validated, decided float64 }
	byJob := make(map[string]*marks)
	var enrolls, deferred int
	for _, e := range cc.Events() {
		if e.Job == "" {
			continue
		}
		mk := byJob[e.Job]
		if mk == nil {
			mk = &marks{enroll: -1, acs: -1, validated: -1, decided: -1}
			byJob[e.Job] = mk
		}
		switch e.Kind {
		case core.EvEnroll:
			enrolls++
			mk.enroll = e.At
		case core.EvACSFixed:
			mk.acs = e.At
		case core.EvValidated:
			mk.validated = e.At
		case core.EvDecided:
			mk.decided = e.At
		case core.EvDeferred:
			deferred++
		default:
			continue // the other kinds mark no phase boundary
		}
	}
	var enroll, validate, commit sample
	for _, mk := range byJob {
		if mk.enroll >= 0 && mk.acs >= 0 {
			enroll.add(mk.acs - mk.enroll)
		}
		if mk.acs >= 0 && mk.validated >= 0 {
			validate.add(mk.validated - mk.acs)
		}
		if mk.validated >= 0 && mk.decided >= 0 {
			commit.add(mk.decided - mk.validated)
		}
	}
	// Means over sorted samples: float addition is not associative, and map
	// order must not leak into a count that is compared exactly.
	enroll.sort()
	validate.sort()
	commit.sort()
	m["core.phase_vs.enroll"] = enroll.mean()
	m["core.phase_vs.validate"] = validate.mean()
	m["core.phase_vs.commit"] = commit.mean()
	m["core.deferred_per_job"] = float64(deferred) / jobs
	if enrolls > 0 {
		m["core.dist_success_ratio"] = float64(sum.AcceptedDistributed) / float64(enrolls)
	}
	pstats.metrics(m, sum.Submitted)

	var planLen int
	for id := 0; id < topo.Len(); id++ {
		planLen += len(cc.SitePlanReservations(graph.NodeID(id)))
	}
	m["schedule.plan_len_end"] = float64(planLen) / float64(topo.Len())
	m["routing.table_bytes_max"] = float64(sum.RoutingTableBytes)
	m["routing.hier.xregion_msgs_per_job"] = float64(sum.CrossRegionMessages) / jobs
	m["simnet.msgs_per_job"] = float64(sum.Messages) / jobs
	m["simnet.bytes_per_job"] = float64(sum.Bytes) / jobs
	m["simnet.bootstrap_msgs"] = float64(out.BootMsgs)
	m["simnet.bootstrap_bytes"] = float64(out.BootBytes)
	return m
}

// ---------------------------------------------------------------------------
// Parent side

// desSub is one sub-run's inputs, generated from the sub-seed.
type desSub struct {
	topo      *graph.Graph
	arrivals  []workload.Arrival
	input     desInput
	topoGenMs float64
	workGenMs float64
}

func desGenerate(shape desShape, seed int64) (*desSub, error) {
	start := time.Now()
	topo, err := graph.Generate(graph.TopoRandom, shape.sites, experiments.StdDelays, seed)
	if err != nil {
		return nil, err
	}
	topoGen := time.Since(start)
	start = time.Now()
	arrivals, err := stdArrivals(shape.sites, shape.horizon, shape.load, 1, seed)
	if err != nil {
		return nil, err
	}
	workGen := time.Since(start)
	enc, err := encodeArrivals(arrivals)
	if err != nil {
		return nil, err
	}
	return &desSub{
		topo:      topo,
		arrivals:  arrivals,
		input:     desInput{Scheme: shape.scheme, Topo: encodeTopo(topo), Arrivals: enc},
		topoGenMs: float64(topoGen) / float64(time.Millisecond),
		workGenMs: float64(workGen) / float64(time.Millisecond),
	}, nil
}

// runDES measures one DES workload: seconds/perRun sub-runs, each with its
// own sub-seed, topology and child. Counts are pooled over the sub-runs and
// times are medians over them, which is what keeps a 64-site random topology
// from making every seed its own benchmark.
func runDES(workload string, opt runOptions) (*record, error) {
	shape := desShapeOf(workload, opt.smoke)
	subs := shape.subRuns(opt.seconds)
	if opt.traced && subs > 1 {
		subs /= 2 // each traced sub-run costs an untraced pass too
	}
	rec := newRecord(workload, opt)
	rec.Sizes = map[string]any{
		"scheme": shape.scheme, "sites": shape.sites, "load": shape.load,
		"horizon": shape.horizon, "kernel_workers": shape.workers, "sub_runs": subs,
	}

	var setup, rate, turnaround, rss, cpu sample
	var jobs, accepted, failed int
	var msgs int64
	var untracedRun, tracedRun float64
	layer := metricSet{}
	prof := newCPUProfile()
	for i := 0; i < subs; i++ {
		sub, err := desGenerate(shape, opt.seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		in := sub.input
		in.KernelWorkers = shape.workers
		in.Verify = i == 0 // the inputs differ per sub-run but the code does not: check one in full
		var out desOutput
		if err := runChild(workload, in, &out); err != nil {
			return nil, err
		}
		rec.problems(out.Problems...)
		for _, v := range out.Violations {
			rec.note(fmt.Sprintf("sub-run %d (sub-seed %d): causality violation, counted as a failed operation: %s",
				i, opt.seed*1000+int64(i), v))
		}
		n := out.Summary.Submitted
		jobs += n
		accepted += out.Summary.AcceptedLocal + out.Summary.AcceptedDistributed
		failed += out.Summary.Undecided + out.Summary.CompletedLate + len(out.Violations)
		msgs += out.Summary.Messages - out.Summary.ControlMessages
		setup.add(out.Cost.SetupS)
		rate.add(float64(n) / out.Cost.RunS)
		turnaround.add((out.Cost.SetupS + out.Cost.RunS) * 1000)
		rss.add(out.Cost.PeakRSSMB)
		cpu.add(out.Cost.CPUMs / float64(n))
		if !opt.traced {
			continue
		}

		// The traced pass runs the serial kernel with the event timeline,
		// the policy decorators and a CPU profile on; its Summary must equal
		// the timed pass's field for field. Where the timed pass is
		// parallel, a second untraced pass on the serial kernel is the
		// baseline of the tracing overhead, so that like is compared.
		base := out
		if shape.workers > 0 {
			in.KernelWorkers, in.Verify = 0, false
			if err := runChild(workload, in, &base); err != nil {
				return nil, err
			}
			rec.problems(base.Problems...)
		}
		in.KernelWorkers, in.Verify, in.Traced = 0, false, true
		in.ProfilePath = opt.outPath(fmt.Sprintf("%s.%d.cpu.pprof", workload, i))
		var traced desOutput
		if err := runChild(workload, in, &traced); err != nil {
			return nil, err
		}
		rec.problems(traced.Problems...)
		for _, other := range []desOutput{base, traced} {
			if !reflect.DeepEqual(out.Summary, other.Summary) {
				rec.problems(fmt.Sprintf("sub-run %d: serial and timed Summary differ:\n  timed  %+v\n  serial %+v",
					i, out.Summary, other.Summary))
			}
		}
		untracedRun += base.Cost.RunS
		tracedRun += traced.Cost.RunS
		if err := prof.addFile(in.ProfilePath); err != nil {
			return nil, err
		}
		layer.accumulate(traced.Layer)
		layer["verify.check_ms"] += out.VerifyMs
		goLayer := metricSet{}
		traced.Cost.goMetrics(goLayer, n)
		layer.accumulate(goLayer)
		layer["graph.generate_ms"] += sub.topoGenMs
		layer["workload.generate_ms"] += sub.workGenMs
		if i == 0 {
			if err := desReplays(workload, shape, sub, rec.Layer); err != nil {
				return nil, err
			}
		}
	}

	rec.Attempted, rec.Failed = jobs, failed
	rec.E2E = metricSet{
		"setup_s":     setup.median(),
		"jobs_per_s":  rate.median(),
		"wait_ms_p50": turnaround.median(),
		// Every job of a batch waits the same, so a sub-run's p90 is its p50;
		// over two to five sub-runs only their median means anything.
		"wait_ms_p90":     turnaround.median(),
		"guarantee_ratio": float64(accepted) / float64(jobs),
		"msgs_per_job":    float64(msgs) / float64(jobs),
		"peak_rss_mb":     rss.median(),
		"cpu_ms_per_job":  cpu.median(),
	}
	if opt.traced {
		for name, v := range layer {
			rec.Layer[name] = v / float64(subs)
		}
		prof.shares(rec.Layer)
		if untracedRun > 0 {
			rec.Layer["trace.overhead_share"] = (tracedRun - untracedRun) / untracedRun
		}
	}
	return rec, nil
}

// accumulate adds other's values into m.
func (m metricSet) accumulate(other metricSet) {
	for k, v := range other {
		m[k] += v
	}
}
