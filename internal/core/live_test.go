package core_test

import (
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nodeapi"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// startNodes runs one core.Node per site of topo, each on its own loopback
// wire.Listen transport as an rtds-node process runs one, and returns them
// bootstrapped, ready and sealed with their transports, which close when
// the test ends. dial, when not nil, picks the address a site dials for a
// neighbour from the neighbour's own.
func startNodes(t *testing.T, topo *graph.Graph, cfg core.Config, scale time.Duration,
	dial func(self, peer graph.NodeID, addr string) string) ([]*core.Node, []*wire.NetTransport) {
	t.Helper()
	trs := make([]*wire.NetTransport, topo.Len())
	addrs := make(map[graph.NodeID]string)
	for id := range trs {
		tr, err := wire.Listen(wire.NetConfig{Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		trs[id], addrs[graph.NodeID(id)] = tr, tr.Addr()
	}
	nodes := make([]*core.Node, len(trs))
	for id, tr := range trs {
		self, peers := graph.NodeID(id), addrs
		if dial != nil {
			peers = make(map[graph.NodeID]string)
			for peer, addr := range addrs {
				peers[peer] = dial(self, peer, addr)
			}
		}
		tr.SetPeers(peers)
		n, err := core.NewNode(topo, cfg, tr, self)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	for _, tr := range trs {
		tr.Start()
	}
	for _, n := range nodes {
		n.StartBootstrap()
	}
	for id, n := range nodes {
		if !n.WaitReady(30 * time.Second) {
			t.Fatalf("node %d never finished the bootstrap", id)
		}
	}
	for _, n := range nodes {
		n.Seal()
	}
	return nodes, trs
}

// newLiveCluster builds a live cluster of every site of topo on one
// loopback wire transport, as the rtds facade does.
func newLiveCluster(topo *graph.Graph, cfg core.Config, scale time.Duration) (*core.LiveCluster, error) {
	tr, err := wire.ListenLocal(topo, scale)
	if err != nil {
		return nil, err
	}
	return core.NewLiveCluster(topo, cfg, tr)
}

// TestLiveMatchesDESDecisions runs the same single-job scenarios on the
// deterministic DES transport and the live cluster's wire transport and
// requires identical admission decisions (experiment E10).
func TestLiveMatchesDESDecisions(t *testing.T) {
	type scenario struct {
		name string
		par  int     // independent tasks
		dur  float64 // per-task duration
		dl   float64 // relative deadline
		want core.Outcome
	}
	scenarios := []scenario{
		{"local", 1, 5, 50, core.AcceptedLocal},
		// Deadline 19 < 20 (serial) forces distribution while leaving ~4
		// virtual units of margin over protocol latency and real jitter.
		{"distributed", 2, 10, 19, core.AcceptedDistributed},
		{"impossible", 2, 10, 3, core.Rejected},
	}
	// On the live transport message handling takes real time that the
	// DES models as zero, so the timeouts derived from link delays alone
	// (enrollment window, release padding) need real slack. The same config
	// drives both transports; the DES outcome is insensitive to the extra
	// slack because every site answers immediately in virtual time.
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			topo := core.FastLine(3)
			des := core.MustCluster(t, topo, cfg)
			dj, err := des.Submit(0, 0, core.ParJob(t, sc.par, sc.dur), sc.dl)
			if err != nil {
				t.Fatal(err)
			}
			core.RunAll(t, des)
			if dj.Outcome != sc.want {
				t.Fatalf("DES outcome %v, want %v", dj.Outcome, sc.want)
			}

			// The live clock is wall-clock-driven: the scale must dwarf Go
			// scheduling jitter or real latency eats the virtual deadline.
			live, err := newLiveCluster(topo, cfg, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			lj, err := live.Submit(0, 0, core.ParJob(t, sc.par, sc.dur), sc.dl)
			if err != nil {
				t.Fatal(err)
			}
			if !live.Wait(30 * time.Second) {
				t.Fatal("live cluster did not quiesce")
			}
			if lj.Outcome != dj.Outcome {
				t.Fatalf("live outcome %v != DES outcome %v", lj.Outcome, dj.Outcome)
			}
			if v := live.Violations(); len(v) != 0 {
				t.Fatalf("live violations: %v", v)
			}
		})
	}
}

// TestLiveAllIdleDuringTraffic calls Idle concurrently with protocol
// activity. The probe is routed through each site's execution context, so
// under -race this test proves the check no longer reads site state from a
// foreign goroutine (the seed's Cluster.AllIdle raced with handlers here).
func TestLiveAllIdleDuringTraffic(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	topo := core.FastLine(3)
	live, err := newLiveCluster(topo, cfg, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// Distribution-forcing deadline (as in TestLiveMatchesDESDecisions) keeps
	// lock/transaction traffic flowing between the sites while we probe.
	job, err := live.Submit(0, 0, core.ParJob(t, 2, 10), 19)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			live.Idle() // value irrelevant mid-run; must not race
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	if !live.Wait(30 * time.Second) {
		t.Fatal("live cluster did not quiesce")
	}
	if job.Outcome != core.AcceptedDistributed {
		t.Fatalf("outcome %v, want %v", job.Outcome, core.AcceptedDistributed)
	}
	if !live.Idle() {
		t.Fatal("cluster not idle after quiescence")
	}
}

// TestLiveSubmitValidatesLikeDES: every entry point — the DES cluster, the
// live cluster and a node — submits through the one Cluster.Submit and must
// reject the same invalid submissions, instead of silently clamping
// negative arrival times.
func TestLiveSubmitValidatesLikeDES(t *testing.T) {
	topo := core.FastLine(2)
	g := core.ParJob(t, 1, 5)
	des := core.MustCluster(t, topo, core.DefaultConfig())
	live, err := newLiveCluster(topo, core.DefaultConfig(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// Invalid submissions are refused before they reach the transport, so
	// the node's is never started.
	tr, err := wire.Listen(wire.NetConfig{Self: 0, Topo: topo, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	node, err := core.NewNode(topo, core.DefaultConfig(), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name      string
		hasOrigin bool // a node always submits at its own site
		submit    func(at float64, origin graph.NodeID, relDeadline float64) error
	}{
		{"des", true, func(at float64, origin graph.NodeID, dl float64) error {
			_, err := des.Submit(at, origin, g, dl)
			return err
		}},
		{"live", true, func(at float64, origin graph.NodeID, dl float64) error {
			_, err := live.Submit(at, origin, g, dl)
			return err
		}},
		{"node", false, func(at float64, _ graph.NodeID, dl float64) error {
			_, err := node.Submit(at, g, dl)
			return err
		}},
	}
	for _, e := range entries {
		if e.submit(-1, 0, 50) == nil {
			t.Errorf("%s: negative submission time accepted", e.name)
		}
		if e.submit(0, 0, 0) == nil {
			t.Errorf("%s: non-positive deadline accepted", e.name)
		}
		if e.hasOrigin && e.submit(0, 99, 50) == nil {
			t.Errorf("%s: out-of-range origin accepted", e.name)
		}
	}
}

// TestNodeAnswersForItsOwnSiteOnly: a node's per-site probes read its own
// site through the site's execution context and report nil, not a panic,
// for a site another process runs.
func TestNodeAnswersForItsOwnSiteOnly(t *testing.T) {
	nodes, _ := startNodes(t, core.FastLine(2), core.DefaultConfig(), 100*time.Microsecond, nil)
	node := nodes[0]
	if got := node.SiteSphere(0); !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Fatalf("node 0's own sphere %v, want [1]", got)
	}
	if got := node.SiteSphere(1); got != nil {
		t.Fatalf("node 0 reported a sphere %v for site 1, which it does not run", got)
	}
	if got := node.SitePlanReservations(1); got != nil {
		t.Fatalf("node 0 reported reservations %v for site 1, which it does not run", got)
	}
}

// TestTwoHostsMatchLiveAndDES runs an 8-site ring as two hosts of four
// sites each, each host on its own wire transport, the two joined over TCP
// as two processes would be. The hosts interleave (even sites, odd sites),
// so every neighbor of every site lives in the other host and
// any distributed job must be committed by members that adopt its record
// from the CommitMsg. On the scenarios of TestLiveMatchesDESDecisions,
// submitted once from each host, the two hosts must decide like the
// all-local live cluster and the DES — the proof that adoption is keyed on
// "initiator not hosted here" and that nothing assumes a host runs one site
// or all of them.
func TestTwoHostsMatchLiveAndDES(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	const scale = 10 * time.Millisecond
	ring := func() *graph.Graph {
		g := graph.New(8)
		for i := 0; i < 8; i++ {
			g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%8), 0.05)
		}
		return g
	}
	type submission struct {
		at     float64
		origin graph.NodeID
		par    int
		dur    float64
		dl     float64
	}
	// The scenarios of TestLiveMatchesDESDecisions, first from a site of
	// the even host, then — spaced out so they never contend for the same
	// locks, which the wall clock would resolve differently from run to
	// run — from a site of the odd host.
	var workload []submission
	for i, origin := range []graph.NodeID{0, 5} {
		base := float64(i) * 120
		workload = append(workload,
			submission{base, origin, 1, 5, 50},       // local
			submission{base + 40, origin, 2, 10, 19}, // distributed
			submission{base + 80, origin, 2, 10, 3},  // impossible
		)
	}
	type submitFn func(at float64, origin graph.NodeID, g *dag.Graph, dl float64) (*core.Job, error)
	submitAll := func(hostOf func(origin graph.NodeID) submitFn) []*core.Job {
		var jobs []*core.Job
		for _, w := range workload {
			j, err := hostOf(w.origin)(w.at, w.origin, core.ParJob(t, w.par, w.dur), w.dl)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		return jobs
	}
	// decisions lists, per origin, the outcomes in submission order.
	decisions := func(jobs []*core.Job) map[graph.NodeID][]core.Outcome {
		out := make(map[graph.NodeID][]core.Outcome)
		for _, j := range jobs {
			out[j.Origin] = append(out[j.Origin], j.Outcome)
		}
		return out
	}

	des := core.MustCluster(t, ring(), cfg)
	desJobs := submitAll(func(graph.NodeID) submitFn { return des.Submit })
	core.RunAll(t, des)
	want := decisions(desJobs)
	for origin, got := range want {
		if !reflect.DeepEqual(got, []core.Outcome{core.AcceptedLocal, core.AcceptedDistributed, core.Rejected}) {
			t.Fatalf("DES decisions at origin %d: %v", origin, got)
		}
	}

	lc, err := newLiveCluster(ring(), cfg, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	liveJobs := submitAll(func(graph.NodeID) submitFn { return lc.Submit })
	if !lc.Wait(60 * time.Second) {
		t.Fatal("live cluster did not quiesce")
	}
	if got := decisions(liveJobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("live cluster decided %v, DES %v", got, want)
	}

	topo := ring()
	hosts := make([]*core.Cluster, 2)
	trs := make([]*wire.NetTransport, 2)
	for h := range hosts {
		var local []graph.NodeID
		for id := h; id < topo.Len(); id += 2 {
			local = append(local, graph.NodeID(id))
		}
		if trs[h], err = wire.ListenLocal(topo, scale); err != nil {
			t.Fatal(err)
		}
		defer trs[h].Close()
		if hosts[h], err = core.NewHost(topo, cfg, trs[h], local); err != nil {
			t.Fatal(err)
		}
	}
	for h, tr := range trs {
		other := make(map[graph.NodeID]string)
		for id := 1 - h; id < topo.Len(); id += 2 {
			other[graph.NodeID(id)] = trs[1-h].Addr()
		}
		tr.SetPeers(other)
	}
	for _, tr := range trs {
		tr.Start()
	}
	for _, h := range hosts {
		h.StartBootstrap()
	}
	if !wire.WaitIdle(30*time.Second, trs...) {
		t.Fatal("two-host bootstrap did not quiesce")
	}
	for _, h := range hosts {
		if err := h.FinishBootstrap(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hosts[0].Submit(0, 1, core.ParJob(t, 1, 5), 50); err == nil {
		t.Fatal("a host accepted a job for a site it does not run")
	}
	hostJobs := submitAll(func(origin graph.NodeID) submitFn { return hosts[origin%2].Submit })
	if !wire.WaitIdle(60*time.Second, trs...) {
		t.Fatal("two hosts did not quiesce")
	}
	if got := decisions(hostJobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("two hosts decided %v, DES %v", got, want)
	}
	for h, host := range hosts {
		if v := host.Violations(); len(v) != 0 {
			t.Fatalf("host %d violations: %v", h, v)
		}
		if !host.Idle() {
			t.Fatalf("host %d holds locks or open transactions after quiescence", h)
		}
	}
}

// TestLiveClusterHier: Config.Hier on the live transport builds the region
// layout and runs the intra-region bootstrap — the same code as the DES,
// so every site ends with the DES's routes, where it used to run flat
// tables under a HierSphere policy without saying so.
func TestLiveClusterHier(t *testing.T) {
	topo := core.HierTopo(32, 5)
	cfg := core.DefaultConfig()
	cfg.Hier = true
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 10
	des := core.MustCluster(t, topo, cfg)
	live, err := newLiveCluster(topo, cfg, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if live.Layout() == nil {
		t.Fatal("live hier cluster has no layout")
	}
	if got, want := live.RouteDigest(), des.RouteDigest(); got != want {
		t.Fatalf("live route digest %016x, DES %016x", got, want)
	}
	// Rounds are synchronous over TCP too, so each round sends the same
	// changed lines as under the DES.
	lm, lb := live.BootstrapCost()
	dm, db := des.BootstrapCost()
	if lm != dm || lb != db {
		t.Fatalf("live bootstrap %d messages of %d B, DES %d of %d B", lm, lb, dm, db)
	}
	if got, want := live.Summarize(), des.Summarize(); got.RoutingTableBytes != want.RoutingTableBytes || got.RoutingEntries != want.RoutingEntries {
		t.Fatalf("live routing state (%d B, %d entries), DES (%d B, %d entries)",
			got.RoutingTableBytes, got.RoutingEntries, want.RoutingTableBytes, want.RoutingEntries)
	}
	origin := graph.NodeID(-1)
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		if len(live.SiteSphere(id)) >= 2 {
			origin = id
			break
		}
	}
	if origin < 0 {
		t.Fatal("no site with a region-local sphere of >= 2")
	}
	// Serial needs 80 > deadline 70: the job must distribute, inside the
	// origin's region.
	job, err := live.Submit(0, origin, core.ParJob(t, 2, 40), 70)
	if err != nil {
		t.Fatal(err)
	}
	if !live.Wait(60 * time.Second) {
		t.Fatal("live hier cluster did not quiesce")
	}
	if job.Outcome != core.AcceptedDistributed {
		t.Fatalf("outcome = %v (stage %q), want accepted-distributed", job.Outcome, job.RejectStage)
	}
	if got := live.Summarize().CrossRegionMessages; got != 0 {
		t.Fatalf("region-local job crossed region boundaries %d times", got)
	}
	if v := live.Violations(); len(v) != 0 {
		t.Fatalf("live violations: %v", v)
	}
}

// TestHierNodesMatchDES runs rtds-hier as rtds-node deploys it: one
// core.Node per site, each on its own loopback TCP transport, membership
// armed as the binary arms it. Every site must finish the bootstrap with
// the DES's routes, and the nodes must decide like the DES a workload whose
// jobs never contend: regions share no site, and within a region the jobs
// are spaced out. Each node's links to neighbours in other regions point at
// a listener that must never be dialed — a link is dialed only to write, so
// nothing crossed a region border on the wire.
func TestHierNodesMatchDES(t *testing.T) {
	topo := core.HierTopo(16, 3)
	cfg := core.DefaultConfig()
	cfg.Hier = true
	cfg.EnrollSlack = 8
	cfg.ReleasePadFactor = 30
	cfg.Membership = membership.Config{Enabled: true, HeartbeatEvery: 25}
	desCfg := cfg
	desCfg.Membership.Horizon = 400
	des := core.MustCluster(t, topo, desCfg)
	lay := des.Layout()
	if lay.Regions < 3 {
		t.Fatalf("%d regions, want at least 3", lay.Regions)
	}

	trap, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer trap.Close()
	var dialed atomic.Int64
	go func() {
		for {
			c, err := trap.Accept()
			if err != nil {
				return
			}
			dialed.Add(1)
			c.Close()
		}
	}()
	nodes, _ := startNodes(t, topo, cfg, 5*time.Millisecond, func(self, peer graph.NodeID, addr string) string {
		if lay.SameRegion(self, peer) {
			return addr
		}
		return trap.Addr().String()
	})
	want := des.SiteRouteDigests()
	for id, n := range nodes {
		if got := n.SiteRouteDigests()[graph.NodeID(id)]; got != want[graph.NodeID(id)] {
			t.Fatalf("node %d route digest %016x, DES %016x", id, got, want[graph.NodeID(id)])
		}
	}

	// In every region, from a site whose sphere holds at least two members:
	// a job it keeps, one that must distribute (serial 80 > deadline 70) and
	// one nobody can meet, each done before the next arrives.
	type submission struct {
		at, dur, dl float64
		par         int
	}
	jobs := []submission{{0, 5, 50, 1}, {20, 40, 70, 2}, {120, 10, 3, 2}}
	var origins []graph.NodeID
	for _, members := range lay.Members {
		for _, id := range members {
			if len(des.SiteSphere(id)) >= 2 {
				origins = append(origins, id)
				break
			}
		}
	}
	if len(origins) < 3 {
		t.Fatalf("%d regions hold a site with a sphere of two, want at least 3", len(origins))
	}
	wantOutcomes := make(map[graph.NodeID][]core.Outcome)
	var desJobs []*core.Job
	for _, origin := range origins {
		for _, j := range jobs {
			dj, err := des.Submit(j.at, origin, core.ParJob(t, j.par, j.dur), j.dl)
			if err != nil {
				t.Fatal(err)
			}
			desJobs = append(desJobs, dj)
			if _, err := nodes[origin].Submit(j.at, core.ParJob(t, j.par, j.dur), j.dl); err != nil {
				t.Fatal(err)
			}
		}
	}
	core.RunAll(t, des)
	for _, j := range desJobs {
		wantOutcomes[j.Origin] = append(wantOutcomes[j.Origin], j.Outcome)
	}
	for origin, got := range wantOutcomes {
		if !reflect.DeepEqual(got, []core.Outcome{core.AcceptedLocal, core.AcceptedDistributed, core.Rejected}) {
			t.Fatalf("DES decisions at origin %d: %v", origin, got)
		}
	}

	deadline := time.Now().Add(60 * time.Second)
	for _, origin := range origins {
		n := nodes[origin]
		for n.Summarize().Undecided > 0 || !n.Idle() {
			if time.Now().After(deadline) {
				t.Fatalf("node %d left jobs undecided or transactions open", origin)
			}
			time.Sleep(10 * time.Millisecond)
		}
		var got []core.Outcome
		for _, st := range n.JobStatuses() {
			got = append(got, st.Outcome)
		}
		if !reflect.DeepEqual(got, wantOutcomes[origin]) {
			t.Errorf("node %d decided %v, DES %v", origin, got, wantOutcomes[origin])
		}
	}
	for id, n := range nodes {
		if v := n.Violations(); len(v) != 0 {
			t.Errorf("node %d violations: %v", id, v)
		}
		if x := n.Summarize().CrossRegionMessages; x != 0 {
			t.Errorf("node %d sent %d messages across a region border", id, x)
		}
	}
	if d := dialed.Load(); d != 0 {
		t.Fatalf("a link to another region was dialed %d times", d)
	}
}

// TestLiveRunIsAnError: Run and RunUntil drive virtual time, which a
// wall-clock host does not have; there they report it instead of
// dereferencing a missing kernel.
func TestLiveRunIsAnError(t *testing.T) {
	live, err := newLiveCluster(core.FastLine(2), core.DefaultConfig(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for name, run := range map[string]func() error{
		"Run":      live.Run,
		"RunUntil": func() error { return live.RunUntil(10) },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "wall-clock") {
			t.Errorf("%s on a live cluster: %v, want an error naming the wall-clock transport", name, err)
		}
	}
	if n := live.EventsProcessed(); n != 0 {
		t.Errorf("EventsProcessed on a live cluster = %d, want 0", n)
	}
}

func TestLiveClusterBootstrap(t *testing.T) {
	topo := core.FastLine(4)
	live, err := newLiveCluster(topo, core.DefaultConfig(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	msgs, _ := live.BootstrapCost()
	// Same bootstrap cost formula as the DES cluster.
	want := int64((2*core.DefaultConfig().Radius - 1) * 2 * topo.NumEdges())
	if msgs != want {
		t.Fatalf("live bootstrap messages %d, want %d", msgs, want)
	}
	for id := 0; id < 4; id++ {
		if len(live.SiteSphere(graph.NodeID(id))) == 0 {
			t.Fatalf("site %d has empty sphere", id)
		}
	}
}

// TestLiveClusterUnderLossAndJitter runs the live cluster with injected
// message loss, delay jitter and a transient site
// outage: whatever is lost, Wait must reach quiescence (no wedged locks —
// the phase timeouts and lock leases must fire), every job must be decided,
// and no site may end holding reservations of a rejected job. Run under
// -race in CI, this also exercises the injector from concurrent senders.
func TestLiveClusterUnderLossAndJitter(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	cfg.Faults = &simnet.FaultPlan{
		Seed:      7,
		Loss:      0.25,
		MaxJitter: 0.5,
		Crashes:   []simnet.Crash{{Site: 2, At: 6, For: 6}},
	}
	topo := core.FastLine(4)
	live, err := newLiveCluster(topo, cfg, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var jobs []*core.Job
	for i := 0; i < 10; i++ {
		// Serial needs 20 > deadline 19: every job must try to distribute,
		// crossing the lossy links in every protocol phase.
		j, err := live.Submit(float64(i)*2, graph.NodeID(i%4), core.ParJob(t, 2, 10), 19)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if !live.Wait(60 * time.Second) {
		t.Fatal("live cluster did not quiesce under faults: wedged lock or timer")
	}
	if !live.Idle() {
		t.Fatal("sites hold locks or open transactions after quiescence")
	}
	rejected := make(map[string]bool)
	for _, j := range jobs {
		if j.Outcome == core.Pending {
			t.Errorf("job %s never decided", j.ID)
		}
		if j.Outcome == core.Rejected {
			rejected[j.ID] = true
		}
	}
	for _, id := range live.ReservationJobIDs() {
		if rejected[id] {
			t.Errorf("a site retains reservations of rejected job %s", id)
		}
	}
}

// TestCountersReadWhileRunning: a node's counters are read while it runs —
// one goroutine scrapes /metrics and calls Summarize over and over while
// the node decides jobs and a membership repair, after a neighbour's
// neighbour dies, makes it adopt a new routing table. Under
// -race this is the check that no reader touches site state off the site's
// goroutine. What the readers see only grows, and once the jobs are decided
// the scrape and Summarize agree.
func TestCountersReadWhileRunning(t *testing.T) {
	topo := graph.Line(3, graph.UnitDelay, 1)
	cfg := core.DefaultConfig()
	cfg.Membership = membership.Config{Enabled: true, HeartbeatEvery: 25, SuspectAfter: 100}
	nodes, trs := startNodes(t, topo, cfg, 100*time.Microsecond, nil)
	node := nodes[0]
	api := nodeapi.New(node)
	api.SetReady()
	scrape := func() string {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	entries := node.Summarize().RoutingEntries

	stop, read := make(chan struct{}), make(chan error, 1)
	go func() {
		var last core.Summary
		for reads := 0; ; reads++ {
			select {
			case <-stop:
				if reads == 0 {
					read <- fmt.Errorf("no read ran")
				} else {
					read <- nil
				}
				return
			default:
			}
			scrape()
			s := node.Summarize()
			if s.Submitted < last.Submitted || s.Undecided-s.Submitted > last.Undecided-last.Submitted || s.Messages < last.Messages {
				read <- fmt.Errorf("counters went back: %v after %v", s, last)
				return
			}
			last = s
		}
	}()

	trs[2].Close() // site 1 declares it dead, and the repair reaches site 0
	g := dag.NewBuilder("one").AddTask(1, 2).MustBuild()
	deadline := time.Now().Add(30 * time.Second)
	for submitted := 0; ; submitted++ {
		if now := node.Summarize().RoutingEntries; now != entries && submitted >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("site 0 never adopted a repaired table")
		}
		if _, err := node.Submit(0, g, 0.5+float64(submitted%40)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	for node.Summarize().Undecided > 0 {
		if time.Now().After(deadline) {
			t.Fatal("jobs left undecided")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}

	series, err := metrics.ParseText([]byte(scrape()))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, s := range series {
		got[s.Name] = s.Value
	}
	s := node.Summarize()
	for name, want := range map[string]int{
		"rtds_node_jobs_total":                     s.Submitted,
		"rtds_node_jobs_decided_total":             s.Submitted,
		"rtds_node_decision_latency_seconds_count": s.Submitted,
		"rtds_node_jobs_accepted_total":            s.AcceptedLocal + s.AcceptedDistributed,
		"rtds_node_routing_entries":                s.RoutingEntries,
		"rtds_node_routing_table_bytes":            s.RoutingTableBytes,
	} {
		if got[name] != float64(want) {
			t.Errorf("%s = %v, Summarize says %d", name, got[name], want)
		}
	}
}
