package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/joblog"
	"repro/internal/mapper"
	"repro/internal/matching"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Replays time one layer's public function on inputs drawn from the same
// seeded workload the end-to-end run used. They run in the traced pass only
// and in the parent, after the children have exited.

// replayJobs bounds how many of a workload's jobs a replay walks.
const replayJobs = 400

// iters is a replay's iteration count: n, or a token few at smoke size,
// where the replays are run to be exercised, not read.
func iters(n int, smoke bool) int {
	if smoke {
		return max(n/100, 4)
	}
	return n
}

// perOp times n calls of fn and reports the mean in the given unit.
func perOp(n int, unit time.Duration, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(unit) / float64(n)
}

// allocsPerOp reports the mean heap allocations of n calls of fn.
func allocsPerOp(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func firstJobs(arrivals []workload.Arrival) []workload.Arrival {
	if len(arrivals) > replayJobs {
		return arrivals[:replayJobs]
	}
	return arrivals
}

// desReplays fills the replay metrics that belong to a DES workload:
// des_std owns the per-job protocol layers, des_wide construction at scale
// and the event kernels.
func desReplays(workload string, shape desShape, sub *desSub, m metricSet) error {
	if workload == wlDesWide {
		return wideReplays(shape, sub.topo, m)
	}
	jobs := firstJobs(sub.arrivals)
	if len(jobs) == 0 {
		return fmt.Errorf("replay: no arrivals")
	}

	// mapper: the trial mapping of each job onto a six-member ACS.
	procs := make([]mapper.ProcInfo, 6)
	for i := range procs {
		procs[i] = mapper.ProcInfo{Site: graph.NodeID(i), Surplus: 0.9 - 0.1*float64(i)}
	}
	const omega = 0.5
	mappings := make([]*mapper.TrialMapping, len(jobs))
	build := func(i int) {
		a := jobs[i]
		// A window too tight to map is a legitimate outcome of the layer
		// (rejection at the mapper stage) and costs what it costs.
		mappings[i], _ = mapper.Build(a.Graph, procs, omega, a.At+3*omega, a.At+a.Deadline, mapper.Options{})
	}
	m["mapper.build_us"] = perOp(len(jobs), time.Microsecond, build)
	m["mapper.build_allocs"] = allocsPerOp(len(jobs), build)

	// matching: the coupling of ACS members to logical processors, on
	// endorsement graphs of the protocol's shape (most members can endorse
	// most processors).
	rng := rand.New(rand.NewSource(1))
	graphs := make([]*matching.Bipartite, 64)
	for i := range graphs {
		b := matching.NewBipartite(8, 6)
		for l := 0; l < 8; l++ {
			for r := 0; r < 6; r++ {
				if rng.Intn(3) > 0 {
					b.AddEdge(l, r)
				}
			}
		}
		graphs[i] = b
	}
	m["matching.max_matching_us"] = perOp(iters(4096, shape.smoke), time.Microsecond, func(i int) {
		graphs[i%len(graphs)].MaximumMatching()
	})

	// schedule: admit + commit of each job's tasks into one growing plan,
	// then refusals and surplus reads against the loaded plan.
	plan := schedule.NewNonPreemptive()
	reqs := make([][]schedule.Request, len(jobs))
	for i, a := range jobs {
		for _, id := range a.Graph.PriorityOrder() {
			reqs[i] = append(reqs[i], schedule.Request{
				Job: fmt.Sprintf("r%d", i), Task: int(id), Release: a.At,
				Deadline: a.At + 4*a.Deadline, Duration: a.Graph.Complexity(id),
			})
		}
	}
	m["schedule.admit_commit_us"] = perOp(len(jobs), time.Microsecond, func(i int) {
		if tk, ok := plan.Admit(jobs[i].At, reqs[i]); ok {
			// Commit only fails on a stale ticket; this one is fresh.
			_ = plan.Commit(tk)
		}
	})
	last := jobs[len(jobs)-1].At
	hopeless := []schedule.Request{
		{Job: "x", Task: 1, Release: 0, Deadline: last, Duration: last},
		{Job: "x", Task: 2, Release: 0, Deadline: last, Duration: last},
	}
	m["schedule.admit_reject_ns"] = perOp(iters(20000, shape.smoke), time.Nanosecond, func(int) { plan.Admit(0, hopeless) })
	m["schedule.surplus_us"] = perOp(iters(20000, shape.smoke), time.Microsecond, func(i int) {
		plan.Surplus(last*float64(i%100)/100, 200)
	})

	// routing: the flat PCS construction and the sphere look-up.
	start := time.Now()
	tables, _, err := routing.Build(sub.topo, routing.RoundsForRadius(core.DefaultConfig().Radius))
	if err != nil {
		return err
	}
	m["routing.build_s"] = time.Since(start).Seconds()
	m["routing.sphere_us"] = perOp(sub.topo.Len()*20, time.Microsecond, func(i int) {
		tables[graph.NodeID(i%sub.topo.Len())].Sphere(core.DefaultConfig().Radius)
	})

	// dag: the JSON form every submission crosses twice.
	encoded := sub.input.Arrivals[:len(jobs)]
	m["dag.unmarshal_us"] = perOp(len(jobs), time.Microsecond, func(i int) {
		// The inputs were produced by MarshalJSON a moment ago.
		_, _ = dag.UnmarshalGraph(encoded[i].Graph)
	})
	m["dag.marshal_us"] = perOp(len(jobs), time.Microsecond, func(i int) {
		_, _ = json.Marshal(jobs[i].Graph)
	})
	return nil
}

// wideReplays times construction at scale and the event kernels.
func wideReplays(shape desShape, topo *graph.Graph, m metricSet) error {
	start := time.Now()
	if _, _, _, err := hier.Build(topo); err != nil {
		return err
	}
	m["routing.hier.build_s"] = time.Since(start).Seconds()

	var part sample
	for i := 0; i < 3; i++ {
		start = time.Now()
		topo.Partition(hier.RegionsFor(topo.Len()))
		part.addDur(time.Since(start), time.Millisecond)
	}
	m["graph.partition_ms"] = part.median()

	// The token storm through the engines' public API, baselined on
	// sim.Engine (not on par at one partition).
	storm := stormShape{sites: 2048, tokens: 4096, hops: 250, reps: 3}
	if shape.smoke {
		storm = stormShape{sites: 128, tokens: 256, hops: 20, reps: 1}
	}
	stormTopo := graph.RandomConnected(storm.sites, 4, graph.DelayRange{Min: 0.05, Max: 0.3}, 42)
	serial, err := storm.runSerial(stormTopo)
	if err != nil {
		return err
	}
	w1, err := storm.runPar(stormTopo, 1)
	if err != nil {
		return err
	}
	n := shape.workers
	if n < 2 {
		n = 2
	}
	wN, err := storm.runPar(stormTopo, n)
	if err != nil {
		return err
	}
	m["sim.ns_per_event"] = serial
	m["sim.par.ns_per_event_w1"] = w1
	m["sim.par.ns_per_event_wN"] = wN
	if wN > 0 {
		m["sim.par.speedup_wN"] = serial / wN
	}
	return nil
}

// stormShape is the PHOLD-style kernel workload of BENCH_suite.json's kernel
// section: tokens hopping along topology edges with the suite's delays.
type stormShape struct{ sites, tokens, hops, reps int }

// stormKernel is the slice of an event engine the storm needs.
type stormKernel struct {
	// schedule runs fn in site to's context, delay after site from's now.
	schedule func(from, to int, delay float64, fn func())
	// run drains the engine and reports the events it processed.
	run func() (int64, error)
}

// measure runs the storm on fresh kernels and returns wall nanoseconds per
// processed event, the best of s.reps runs.
func (s stormShape) measure(topo *graph.Graph, fresh func() (stormKernel, error)) (float64, error) {
	best := 0.0
	for rep := 0; rep < s.reps; rep++ {
		k, err := fresh()
		if err != nil {
			return 0, err
		}
		// Per-site LCG state picks the next hop: no shared random source, so
		// the trajectory does not depend on the partition count.
		state := make([]uint64, topo.Len())
		var deliver func(site, remaining int)
		deliver = func(site, remaining int) {
			if remaining == 0 {
				return
			}
			nbs := topo.Neighbors(graph.NodeID(site))
			state[site] = state[site]*6364136223846793005 + 1442695040888963407
			e := nbs[int(state[site]>>33)%len(nbs)]
			to := int(e.To)
			k.schedule(site, to, e.Delay, func() { deliver(to, remaining-1) })
		}
		for i := 0; i < s.tokens; i++ {
			site := i % topo.Len()
			k.schedule(site, site, float64(i)*1e-4, func() { deliver(site, s.hops) })
		}
		start := time.Now()
		events, err := k.run()
		if err != nil {
			return 0, err
		}
		if ns := float64(time.Since(start)) / float64(events); best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

func (s stormShape) runSerial(topo *graph.Graph) (float64, error) {
	return s.measure(topo, func() (stormKernel, error) {
		e := sim.New()
		return stormKernel{
			schedule: func(_, _ int, delay float64, fn func()) { e.AfterFixed(delay, fn) },
			run:      func() (int64, error) { err := e.Run(); return e.Processed(), err },
		}, nil
	})
}

func (s stormShape) runPar(topo *graph.Graph, workers int) (float64, error) {
	return s.measure(topo, func() (stormKernel, error) {
		part := topo.Partition(workers)
		e, err := par.New(part, topo.MinCrossDelay(part))
		if err != nil {
			return stormKernel{}, err
		}
		return stormKernel{
			schedule: func(from, to int, delay float64, fn func()) { e.Schedule(from, to, e.NowOf(from)+delay, fn) },
			run:      func() (int64, error) { err := e.Run(); return e.Processed(), err },
		}, nil
	})
}

// ---------------------------------------------------------------------------
// Codec, gateway and joblog replays

// codecReplay times the wire codec on the kind mix the live run sent.
func codecReplay(payloads []simnet.Payload, m metricSet) {
	var frames [][]byte
	var kept []simnet.Payload
	for _, p := range payloads {
		if f, err := wire.Encode(p); err == nil {
			frames = append(frames, f)
			kept = append(kept, p)
		}
	}
	if len(frames) == 0 {
		return
	}
	n := 20 * len(frames)
	var arena wire.EncodeArena
	m["wire.encode_ns"] = perOp(n, time.Nanosecond, func(i int) {
		// Every payload here encoded a moment ago.
		_, _ = arena.Encode(kept[i%len(kept)])
	})
	decode := func(i int) { _, _ = wire.Decode(frames[i%len(frames)]) }
	m["wire.decode_ns"] = perOp(n, time.Nanosecond, decode)
	m["wire.decode_allocs"] = allocsPerOp(n, decode)
}

// gatewayReplay times the two gates a submission passes before the WAL:
// validation (dag schema + wire-codec probe) and tenant admission.
func gatewayReplay(graphs []json.RawMessage, smoke bool, m metricSet) {
	if len(graphs) == 0 {
		return
	}
	m["gateway.validate_us"] = perOp(len(graphs), time.Microsecond, func(i int) {
		if g, err := dag.UnmarshalGraph(graphs[i]); err == nil {
			_, _ = wire.Encode(core.CommitMsg{Job: "probe", Graph: g})
		}
	})
	adm := gateway.NewAdmitter(map[string]gateway.Quota{"bench": {Rate: 1e9, Burst: 1e9}})
	m["gateway.admit_ns"] = perOp(iters(200000, smoke), time.Nanosecond, func(int) {
		if adm.Admit("bench", 100).OK {
			adm.Release("bench")
		}
	})
}

// joblogReplay times a direct Append with one appender per CPU on a fresh
// log with fsync on, and Open on the pre-built log.
func joblogReplay(dir, prebuilt string, graphs []json.RawMessage, smoke bool, m metricSet) error {
	start := time.Now()
	l, records, err := joblog.Open(prebuilt, joblog.Options{NoSync: true})
	if err != nil {
		return err
	}
	if d := time.Since(start).Seconds(); d > 0 {
		m["joblog.replay_records_per_s"] = float64(len(records)) / d
	}
	if err := l.Close(); err != nil {
		return err
	}

	path := dir + "/append-replay.wal"
	defer os.Remove(path)
	l, _, err = joblog.Open(path, joblog.Options{})
	if err != nil {
		return err
	}
	appenders := runtime.NumCPU()
	perAppender := iters(150, smoke)
	lat := make([]sample, appenders)
	errs := make([]error, appenders)
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				rec := joblog.Record{
					Type: joblog.TypeSubmitted, ID: fmt.Sprintf("r%d-%d", w, i), Tenant: "bench",
					Deadline: 100, Graph: graphs[(w*perAppender+i)%len(graphs)],
				}
				start := time.Now()
				if err := l.Append(rec); err != nil {
					errs[w] = err
					return
				}
				lat[w].addDur(time.Since(start), time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	var all sample
	for w := range lat {
		if errs[w] != nil {
			l.Close()
			return errs[w]
		}
		all.v = append(all.v, lat[w].v...)
	}
	m["joblog.append_ms.p50"] = all.median()
	return l.Close()
}
