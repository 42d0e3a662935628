package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/daggen"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/joblog"
	"repro/internal/nodeapi"
	"repro/internal/scheme"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/workload"
)

// live_open: the deployed path end to end. In the child, eight core.Nodes
// over wire.NetTransport on loopback TCP behind nodeapi HTTP servers,
// fronted by a real gateway.Server with HTTPBackend and an fsynced WAL. The
// parent offers an open-loop load and sweeps for decisions.
const (
	liveSites = 8
	// liveScale is the wall time of one virtual unit, so the topology's
	// link delays (0.05-0.3 units) inject 50-300 us per hop.
	liveScale     = time.Millisecond
	liveSlack     = 8.0  // EnrollSlack, virtual units
	livePad       = 30.0 // ReleasePadFactor
	liveHeartbeat = 25.0 // membership heartbeat, virtual units
	// The offered load. Task sizes are x8 the suite's and deadlines 4x the
	// critical path, so that every relative deadline stays well above the
	// cluster's p99 decision latency: the gateway's laxity gate then refuses
	// nothing, and no operation of the workload fails. At 40 jobs/s the eight
	// sites are offered about 0.9 of their capacity, so jobs need spheres.
	liveRate       = 40.0
	liveComplexity = 8.0
	liveTightness  = 4.0
	// liveDeadlineFloor lifts the shortest relative deadlines (about 1% of
	// the jobs draw one below it, down to 35 units). The slowest few
	// decisions of a node take 30-50 units on this box, and the gate refused
	// exactly those jobs, on the same seeds every time.
	liveDeadlineFloor = 120.0
	sweepQuantum      = 5 * time.Millisecond
	goodputLimit      = 300 * time.Millisecond
	liveDrain         = 10 * time.Second
	liveTenant        = "bench"
	liveSetups        = 7 // how many children set up, for the median of setup_s (each costs about 0.2 s)
)

// liveInput is everything the live_open child receives.
type liveInput struct {
	Topo        topoInput `json:"topo"`
	WALPath     string    `json:"wal_path"`
	Traced      bool      `json:"traced"`
	ProfilePath string    `json:"profile_path,omitempty"`
	SpansPath   string    `json:"spans_path,omitempty"`
}

// liveStop ends the child's serving phase. Decided carries, for the traced
// pass, when the client first saw each job decided (by cluster id).
type liveStop struct {
	Decided map[string]int64 `json:"decided,omitempty"` // unix nanoseconds
}

// liveJob is a node's final view of one job.
type liveJob struct {
	ID      string `json:"id"`
	Outcome string `json:"outcome"`
}

// liveOutput is the live_open child's result.
type liveOutput struct {
	Cost         childCost `json:"cost"`
	Jobs         []liveJob `json:"jobs"`
	Messages     int64     `json:"messages"`
	ControlMsgs  int64     `json:"control_msgs"`
	Bytes        int64     `json:"bytes"`
	Fsyncs       int       `json:"fsyncs"`
	Problems     []string  `json:"problems,omitempty"`
	Layer        metricSet `json:"layer,omitempty"`
	PhaseMsByMix float64   `json:"phase_ms_by_mix"` // mean protocol time per job over the outcome mix
}

// liveCluster is the child's running system under test.
type liveCluster struct {
	trs     []*wire.NetTransport
	nodes   []*core.Node
	servers []*http.Server
	gw      *gateway.Server
	wg      sync.WaitGroup
}

func (lc *liveCluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	lc.servers = append(lc.servers, srv)
	lc.wg.Add(1)
	go func() {
		defer lc.wg.Done()
		// Serve returns ErrServerClosed on shutdown; anything else shows up
		// as failed requests at the client.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

func (lc *liveCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range lc.servers {
		_ = srv.Shutdown(ctx) // a timeout only means a client kept a connection open
	}
	lc.wg.Wait()
	if lc.gw != nil {
		_ = lc.gw.Close() // the WAL is re-read by the parent, which would notice a bad tail
	}
	for _, tr := range lc.trs {
		tr.Close()
	}
}

// liveTracers bundles the traced pass's decorators.
type liveTracers struct {
	spans     spanLog
	transport *transportStats
	policy    policyStats
	backend   backendStats
	api       apiStats
}

func liveChild(pio *childIO) error {
	var in liveInput
	if err := pio.read(&in); err != nil {
		return err
	}
	topo, err := in.Topo.build()
	if err != nil {
		return err
	}
	var tr *liveTracers
	if in.Traced {
		tr = &liveTracers{transport: newTransportStats()}
	}

	setupStart := time.Now()
	lc := &liveCluster{}
	defer lc.close()
	var fsyncMu sync.Mutex
	var fsync sample // milliseconds
	if err := lc.start(topo, in, tr, func(d time.Duration) {
		fsyncMu.Lock()
		fsync.addDur(d, time.Millisecond)
		fsyncMu.Unlock()
	}); err != nil {
		return err
	}
	gwAddr, err := lc.serve(lc.gw)
	if err != nil {
		return err
	}
	setup := time.Since(setupStart)
	ready := readUsage()
	// The wall instant of each node's virtual clock, to place a node-side
	// DecisionAt on the client's time line.
	wall0 := time.Now()
	virt0 := make([]float64, len(lc.trs))
	for i, t := range lc.trs {
		virt0[i] = t.Now()
	}

	stopProfile, err := startProfile(in.ProfilePath)
	if err != nil {
		return err
	}
	defer stopProfile()
	runStart := time.Now()
	if err := pio.ready(gwAddr); err != nil {
		return err
	}
	var stop liveStop
	if err := pio.read(&stop); err != nil {
		return err
	}
	run := time.Since(runStart)
	stopProfile()
	end := readUsage()

	out := liveOutput{Cost: costBetween(ready, end, setup, run)}
	statuses := lc.check(&out)
	fsyncMu.Lock()
	out.Fsyncs = fsync.n()
	fsyncP50, fsyncP90 := fsync.median(), fsync.percentile(90)
	fsyncMu.Unlock()
	if tr != nil {
		out.Layer = tr.metrics(statuses, stop, wall0, virt0, run, &out)
		out.Layer["joblog.fsync_ms.p50"] = fsyncP50
		out.Layer["joblog.fsync_ms.p90"] = fsyncP90
		if err := tr.spans.appendTo(in.SpansPath); err != nil {
			return err
		}
	}
	return pio.result(out)
}

// liveConfig is the node configuration of the deployed cluster (and of the
// fidelity replay on the DES).
func liveConfig(topo *graph.Graph) (core.Config, error) {
	cfg, err := scheme.CoreConfig("rtds", topo)
	if err != nil {
		return cfg, err
	}
	cfg.EnrollSlack = liveSlack
	cfg.ReleasePadFactor = livePad
	return cfg, nil
}

// start brings the cluster up: listen, TCP bootstrap, control planes,
// gateway (which opens its WAL).
func (lc *liveCluster) start(topo *graph.Graph, in liveInput, tr *liveTracers, onSync func(time.Duration)) error {
	addrs := make(map[graph.NodeID]string, topo.Len())
	for id := 0; id < topo.Len(); id++ {
		t, err := wire.Listen(wire.NetConfig{
			Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", Scale: liveScale,
		})
		if err != nil {
			return err
		}
		lc.trs = append(lc.trs, t)
		addrs[graph.NodeID(id)] = t.Addr()
	}
	for id, t := range lc.trs {
		t.SetPeers(addrs)
		cfg, err := liveConfig(topo)
		if err != nil {
			return err
		}
		cfg.Membership = membership.Config{Enabled: true, HeartbeatEvery: liveHeartbeat}
		var transport simnet.Transport = t
		if tr != nil {
			tracePolicies(&cfg, &tr.policy)
			transport = &timedTransport{Transport: t, site: graph.NodeID(id), stats: tr.transport, spans: &tr.spans}
		}
		node, err := core.NewNode(topo, cfg, transport, graph.NodeID(id))
		if err != nil {
			return err
		}
		lc.nodes = append(lc.nodes, node)
	}
	for _, t := range lc.trs {
		t.Start()
	}
	for _, n := range lc.nodes {
		n.StartBootstrap()
	}
	for id, n := range lc.nodes {
		if !n.WaitReady(30 * time.Second) {
			return fmt.Errorf("node %d never finished the PCS bootstrap over TCP", id)
		}
	}
	var bases []string
	for id, n := range lc.nodes {
		n.Seal()
		api := nodeapi.New(n)
		api.SetReady()
		var h http.Handler = api
		if tr != nil {
			h = traceAPI(id, api, &tr.api, &tr.spans)
		}
		addr, err := lc.serve(h)
		if err != nil {
			return err
		}
		bases = append(bases, "http://"+addr)
	}
	httpBackend, err := gateway.NewHTTPBackend(bases, 5*time.Second)
	if err != nil {
		return err
	}
	var backend gateway.Backend = httpBackend
	if tr != nil {
		backend = &timedBackend{inner: httpBackend, stats: &tr.backend, spans: &tr.spans}
	}
	lc.gw, err = gateway.New(gateway.Options{
		Tenants: map[string]gateway.Quota{liveTenant: {Rate: 1e9, Burst: 1e9}},
		Backend: backend,
		LogPath: in.WALPath,
		Log:     joblog.Options{OnSync: onSync},
	})
	return err
}

// check runs the end-of-run correctness checks on the nodes and fills the
// traffic counters. It returns every node's job statuses.
func (lc *liveCluster) check(out *liveOutput) [][]core.JobStatus {
	// Abort unlocks of the last rejected jobs may still be in flight.
	deadline := time.Now().Add(3 * time.Second)
	for {
		idle := true
		for _, n := range lc.nodes {
			if !n.Idle() {
				idle = false
				break
			}
		}
		if idle || time.Now().After(deadline) {
			if !idle {
				out.Problems = append(out.Problems, "a node is not idle after the drain")
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	statuses := make([][]core.JobStatus, len(lc.nodes))
	accepted := make(map[string]bool)
	for i, n := range lc.nodes {
		statuses[i] = n.JobStatuses()
		for _, j := range statuses[i] {
			out.Jobs = append(out.Jobs, liveJob{ID: j.ID, Outcome: j.OutcomeName})
			if j.Outcome == core.AcceptedLocal || j.Outcome == core.AcceptedDistributed {
				accepted[j.ID] = true
			}
		}
	}
	for i, n := range lc.nodes {
		if v := n.Violations(); len(v) > 0 {
			out.Problems = append(out.Problems, fmt.Sprintf("node %d: %d violations, first: %s", i, len(v), v[0]))
		}
		sum := n.Summarize()
		if sum.CompletedLate > 0 {
			out.Problems = append(out.Problems, fmt.Sprintf("node %d: %d accepted jobs completed late", i, sum.CompletedLate))
		}
		if sum.Undecided > 0 {
			out.Problems = append(out.Problems, fmt.Sprintf("node %d: %d jobs undecided", i, sum.Undecided))
		}
		for _, id := range n.ReservationJobIDs() {
			if !accepted[id] {
				out.Problems = append(out.Problems, fmt.Sprintf("node %d: leaked reservation of %s", i, id))
			}
		}
		st := n.Stats()
		out.Messages += st.Messages()
		out.ControlMsgs += st.ControlMessages()
		out.Bytes += st.Bytes()
	}
	return statuses
}

// siteOf parses the owning site out of a cluster job id ("j3@7").
func siteOf(clusterID string) int {
	_, site, ok := strings.Cut(clusterID, "@")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(site)
	if err != nil {
		return -1
	}
	return n
}

// metrics derives the live-side layer metrics of the traced pass.
func (tr *liveTracers) metrics(statuses [][]core.JobStatus, stop liveStop, wall0 time.Time, virt0 []float64, run time.Duration, out *liveOutput) metricSet {
	m := metricSet{}
	jobs := 0
	for _, s := range statuses {
		jobs += len(s)
	}
	if jobs == 0 {
		return m
	}

	ts := tr.transport
	ts.mu.Lock()
	for _, k := range handleKinds {
		if s := ts.handle[k]; s != nil {
			m["core.handle_us."+k] = s.mean()
		}
	}
	m["core.handle_calls_per_job"] = float64(ts.calls) / float64(jobs)
	m["wire.send_us"] = ts.send.mean()
	payloads := append([]simnet.Payload(nil), ts.payload...)
	ts.mu.Unlock()
	codecReplay(payloads, m)

	m["core.membership.control_msgs_per_s"] = float64(out.ControlMsgs) / run.Seconds()
	m["wire.msgs_per_job"] = float64(out.Messages) / float64(jobs)
	m["wire.bytes_per_job"] = float64(out.Bytes) / float64(jobs)
	tr.policy.metrics(m, jobs)
	tr.backend.metrics(m)
	tr.api.metrics(m)

	// Protocol phases at each job's origin, from the handler spans: the
	// job enters at the end of its /submit span; a phase ends with the last
	// answer of its kind.
	type marks struct{ submit, enroll, validate, commit int64 }
	byJob := make(map[string]*marks)
	for _, s := range tr.spans.snapshot() {
		if s.Job == "" || s.Site != siteOf(s.Job) {
			continue
		}
		mk := byJob[s.Job]
		if mk == nil {
			mk = &marks{}
			byJob[s.Job] = mk
		}
		switch s.Name {
		case "nodeapi.submit":
			mk.submit = s.End
		case "core.handle.enroll-ack":
			mk.enroll = max(mk.enroll, s.End)
		case "core.handle.validate-ack":
			mk.validate = max(mk.validate, s.End)
		case "core.handle.commit-ack":
			mk.commit = max(mk.commit, s.End)
		}
	}
	var enroll, validate, commit sample
	var protocolTotal float64
	for _, mk := range byJob {
		last := mk.submit
		if mk.submit > 0 && mk.enroll > mk.submit {
			enroll.add(float64(mk.enroll-mk.submit) / 1e6)
			last = mk.enroll
		}
		if mk.enroll > 0 && mk.validate > mk.enroll {
			validate.add(float64(mk.validate-mk.enroll) / 1e6)
			last = mk.validate
		}
		if mk.validate > 0 && mk.commit > mk.validate {
			commit.add(float64(mk.commit-mk.validate) / 1e6)
			last = mk.commit
		}
		if mk.submit > 0 {
			protocolTotal += float64(last-mk.submit) / 1e6
		}
	}
	m["core.phase_ms.enroll"] = enroll.mean()
	m["core.phase_ms.validate"] = validate.mean()
	m["core.phase_ms.commit"] = commit.mean()
	out.PhaseMsByMix = protocolTotal / float64(jobs)

	// How long a decision waited before the client saw it: the client's
	// first decided sweep minus the node-side decision instant, placed on
	// the wall clock through the node's own virtual clock.
	var waited sample
	for site, list := range statuses {
		for _, j := range list {
			seen, ok := stop.Decided[j.ID]
			if !ok || j.Outcome == core.Pending {
				continue
			}
			decidedAt := wall0.Add(time.Duration((j.DecisionAt - virt0[site]) * float64(liveScale)))
			waited.add(float64(seen-decidedAt.UnixNano()) / 1e6)
		}
	}
	m["gateway.decision_return_ms.p50"] = waited.median()
	return m
}

// ---------------------------------------------------------------------------
// Parent side: the open-loop generator and the decision sweeper

// liveArrivals draws the offered jobs: the suite's DAG mix, Poisson arrivals.
// Exactly liveRate x seconds jobs are offered, their arrival times scaled to
// span the run, so that the offered rate does not vary with the seed.
func liveArrivals(seconds float64, seed int64) ([]workload.Arrival, error) {
	unitsPerSecond := float64(time.Second / liveScale)
	want := int(liveRate * seconds)
	spec := experiments.StdSpec(liveSites, 1.5*seconds*unitsPerSecond, seed)
	spec.Params = daggen.Params{
		MinComplexity: spec.Params.MinComplexity * liveComplexity,
		MaxComplexity: spec.Params.MaxComplexity * liveComplexity,
	}
	spec.Tightness = liveTightness
	spec.RatePerSite = liveRate / liveSites / unitsPerSecond
	arrivals, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if len(arrivals) < want {
		return nil, fmt.Errorf("live_open: drew %d arrivals, want %d", len(arrivals), want)
	}
	arrivals = arrivals[:want]
	scale := seconds * unitsPerSecond / arrivals[want-1].At
	for i := range arrivals {
		arrivals[i].At *= scale
		arrivals[i].Deadline = max(arrivals[i].Deadline, liveDeadlineFloor)
	}
	return arrivals, nil
}

// livePass is one load phase against one child.
type livePass struct {
	out      liveOutput
	jobs     []offered
	walBytes int64
	walRecs  int
	spans    spanLog
}

// liveRunChild starts a child, offers it the arrivals (none: set-up only) and
// collects its result.
func liveRunChild(opt runOptions, topo *graph.Graph, arrivals []workload.Arrival, traced bool, tag string) (*livePass, error) {
	wal := opt.outPath(fmt.Sprintf("live-%d-%s.wal", os.Getpid(), tag))
	defer os.Remove(wal)
	in := liveInput{Topo: encodeTopo(topo), WALPath: wal, Traced: traced}
	if traced {
		in.ProfilePath = opt.outPath(wlLive + ".cpu.pprof")
		in.SpansPath = opt.outPath(wlLive + ".spans.jsonl")
	}
	c, err := startChild(wlLive, in)
	if err != nil {
		return nil, err
	}
	ready, err := c.recv("ready")
	if err != nil {
		c.kill()
		return nil, err
	}
	pass := &livePass{}
	drain := liveDrain
	if opt.smoke {
		drain = 2 * time.Second
	}
	if len(arrivals) > 0 {
		if pass.jobs, err = liveLoad(ready.Addr, arrivals, drain); err != nil {
			c.kill()
			return nil, err
		}
	}
	stop := liveStop{}
	if traced {
		stop.Decided = make(map[string]int64)
		for _, j := range pass.jobs {
			if j.clusterID == "" {
				continue
			}
			pass.spans.add(span{Name: "client.submit", Start: j.sentAt.UnixNano(), End: j.ackedAt.UnixNano(),
				Job: j.clusterID, GW: j.gwID, Site: -1})
			if !j.decidedAt.IsZero() {
				stop.Decided[j.clusterID] = j.decidedAt.UnixNano()
				pass.spans.add(span{Name: "client.decided", Start: j.ackedAt.UnixNano(), End: j.decidedAt.UnixNano(),
					Parent: "client.submit", Job: j.clusterID, GW: j.gwID, Site: -1})
			}
		}
	}
	if err := c.send(stop); err != nil {
		c.kill()
		return nil, err
	}
	if err := c.finish(&pass.out); err != nil {
		return nil, err
	}
	if traced {
		if err := pass.spans.appendTo(in.SpansPath); err != nil {
			return nil, err
		}
	}
	// What the run left in the WAL, before the deferred remove.
	if l, records, err := joblog.Open(wal, joblog.Options{NoSync: true}); err == nil {
		pass.walRecs = len(records)
		if st, err := os.Stat(wal); err == nil {
			pass.walBytes = st.Size()
		}
		_ = l.Close() // nothing was appended
	}
	return pass, nil
}

func runLive(opt runOptions) (*record, error) {
	seconds := float64(opt.seconds)
	if opt.smoke {
		seconds = 1
	}
	if opt.traced {
		seconds /= 2 // an untraced and a traced pass share the measured time
	}
	// A 3-cube: every seed gets the same structure (degree 3, diameter 3)
	// and its own link delays, so the cluster is the same cluster from run
	// to run and the seed still reaches the network.
	topo, err := graph.Generate(graph.TopoHypercube, liveSites, experiments.StdDelays, opt.seed)
	if err != nil {
		return nil, err
	}
	arrivals, err := liveArrivals(seconds, opt.seed)
	if err != nil {
		return nil, err
	}
	rec := newRecord(wlLive, opt)
	rec.Sizes = map[string]any{
		"sites": liveSites, "rate_per_s": liveRate, "load_seconds": seconds, "jobs": len(arrivals),
		"scale_us_per_unit": liveScale.Microseconds(), "link_delay_us": "50-300",
		"enroll_slack": liveSlack, "release_pad": livePad, "heartbeat_units": liveHeartbeat,
		"gateway_poll_ms": 200, "sweep_quantum_ms": sweepQuantum.Milliseconds(),
		"goodput_limit_ms": goodputLimit.Milliseconds(), "task_complexity_x": liveComplexity, "tightness": liveTightness,
		"deadline_floor_units": liveDeadlineFloor, "topology": "hypercube",
	}

	// One cluster serves the whole run: the gateway's laxity gate reads each
	// node's all-time p99 decision latency, which is the maximum until a node
	// has decided a hundred jobs, so a cluster that is restarted every few
	// seconds refuses short-deadline jobs after any one slow decision. Set-up
	// alone is repeated, so that setup_s is a median and not one draw; the
	// repeats come after the load, when the box has been quiet for a while
	// (a set-up within two seconds of a CPU-heavy process, such as the link
	// step of `go run`, takes 30 ms instead of 20).
	pass, err := liveRunChild(opt, topo, arrivals, false, "load")
	if err != nil {
		return nil, err
	}
	var setup sample
	setup.add(pass.out.Cost.SetupS)
	if !opt.traced && !opt.smoke {
		for i := 1; i < liveSetups; i++ {
			p, err := liveRunChild(opt, topo, nil, false, fmt.Sprintf("setup%d", i))
			if err != nil {
				return nil, err
			}
			rec.problems(p.out.Problems...)
			setup.add(p.out.Cost.SetupS)
		}
	}
	rec.problems(pass.out.Problems...)
	s := summarizeLive(pass.jobs)
	rec.Attempted, rec.Failed, rec.Refused = s.attempted, s.failed, s.refused
	s.explain(rec)
	if s.decided == 0 || len(pass.out.Jobs) == 0 {
		rec.problems("no job was decided")
		return rec, nil
	}
	baseCPU := pass.out.Cost.CPUMs / float64(s.acked)
	rec.E2E = metricSet{
		"setup_s":         setup.median(),
		"jobs_per_s":      float64(s.good) / seconds,
		"wait_ms_p50":     s.decide.median(),
		"wait_ms_p90":     s.decide.percentile(90),
		"guarantee_ratio": float64(s.accepted) / float64(s.decided),
		"msgs_per_job":    float64(pass.out.Messages-pass.out.ControlMsgs) / float64(len(pass.out.Jobs)),
		"peak_rss_mb":     pass.out.Cost.PeakRSSMB,
		"cpu_ms_per_job":  baseCPU,
	}
	if !opt.traced {
		return rec, nil
	}

	traced, err := liveRunChild(opt, topo, arrivals, true, "traced")
	if err != nil {
		return nil, err
	}
	rec.problems(traced.out.Problems...)
	ts := summarizeLive(traced.jobs)
	rec.Attempted += ts.attempted
	rec.Failed += ts.failed
	rec.Refused += ts.refused
	ts.explain(rec)
	if ts.decided == 0 || len(traced.out.Jobs) == 0 {
		rec.problems("no job was decided in the traced pass")
		return rec, nil
	}
	m := rec.Layer
	m.accumulate(traced.out.Layer)
	tjobs := len(traced.out.Jobs)
	traced.out.Cost.goMetrics(m, tjobs)
	m["client.gen_late_ms.p90"] = ts.late.percentile(90)
	m["client.gen_late_ms.max"] = ts.late.max()
	// The tail is reported at the highest percentile that has ten samples
	// beyond it, and says which one that was.
	tail := highestPercentile(ts.decide.n())
	m["client.decide_tail_pct"] = tail
	m["client.decide_ms_tail"] = ts.decide.percentile(tail)
	m["client.decide_local_ms.p50"] = ts.local.median()
	m["client.decide_dist_ms.p50"] = ts.dist.median()
	m["client.ack_ms.p50"] = ts.ack.median()
	m["client.ack_ms.p90"] = ts.ack.percentile(90)
	m["client.sweep_quantum_ms"] = float64(sweepQuantum) / float64(time.Millisecond)
	m["gateway.refused_share"] = float64(ts.refused) / float64(ts.attempted)
	if traced.out.Fsyncs > 0 {
		m["joblog.records_per_fsync"] = float64(traced.walRecs) / float64(traced.out.Fsyncs)
	}
	m["joblog.bytes_per_job"] = float64(traced.walBytes) / float64(tjobs)
	m["trace.overhead_share"] = (traced.out.Cost.CPUMs/float64(tjobs) - baseCPU) / baseCPU
	prof := newCPUProfile()
	if err := prof.addFile(opt.outPath(wlLive + ".cpu.pprof")); err != nil {
		return nil, err
	}
	prof.shares(m)
	if err := liveFidelity(topo, arrivals, traced, ts, m); err != nil {
		return nil, err
	}

	// The latency budget of the traced pass: ack + protocol time over the
	// outcome mix + how long a decision waited should add up to the decision
	// latency the client saw.
	budget := ts.ack.median() + traced.out.PhaseMsByMix + m["gateway.decision_return_ms.p50"]
	rec.note(fmt.Sprintf("traced latency budget: ack p50 %.1f + protocol over the outcome mix %.1f + decision return p50 %.1f = %.1f ms; decide p50 %.1f ms",
		ts.ack.median(), traced.out.PhaseMsByMix, m["gateway.decision_return_ms.p50"], budget, ts.decide.median()))
	return rec, nil
}

// liveFidelity replays the arrivals the live pass offered through the DES
// with the node configuration, each at the virtual time and origin the
// deployed stack gave it, and compares magnitudes.
func liveFidelity(topo *graph.Graph, arrivals []workload.Arrival, pass *livePass, live liveSummary, m metricSet) error {
	cfg, err := liveConfig(topo)
	if err != nil {
		return err
	}
	c, err := core.NewCluster(topo, cfg)
	if err != nil {
		return err
	}
	var start time.Time
	for _, j := range pass.jobs {
		if !j.sentAt.IsZero() && (start.IsZero() || j.sentAt.Before(start)) {
			start = j.sentAt
		}
	}
	type pair struct {
		job  *core.Job
		live string
	}
	var pairs []pair
	for i, j := range pass.jobs {
		site := siteOf(j.clusterID)
		if site < 0 || j.outcome == "" {
			continue
		}
		at := float64(j.sentAt.Sub(start)) / float64(liveScale)
		job, err := c.Submit(at, graph.NodeID(site), arrivals[i].Graph, arrivals[i].Deadline)
		if err != nil {
			return err
		}
		pairs = append(pairs, pair{job: job, live: j.outcome})
	}
	if len(pairs) == 0 {
		return nil
	}
	if err := c.Run(); err != nil {
		return err
	}
	sum := c.Summarize()
	agree := 0
	for _, p := range pairs {
		if p.job.Accepted() == strings.HasPrefix(p.live, "accepted") {
			agree++
		}
	}
	m["fidelity.decision_agreement"] = float64(agree) / float64(len(pairs))
	liveRatio := float64(live.accepted) / float64(live.decided)
	if sum.GuaranteeRatio > 0 {
		m["fidelity.guarantee_ratio_gap"] = math.Abs(liveRatio-sum.GuaranteeRatio) / sum.GuaranteeRatio
	}
	liveMsgs := float64(pass.out.Messages-pass.out.ControlMsgs) / float64(len(pass.out.Jobs))
	if sum.MessagesPerJob > 0 {
		m["fidelity.msgs_per_job_gap"] = math.Abs(liveMsgs-sum.MessagesPerJob) / sum.MessagesPerJob
	}
	return nil
}
