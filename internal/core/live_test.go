package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// TestLiveMatchesDESDecisions runs the same single-job scenarios on the
// deterministic DES transport and the goroutine-backed live transport and
// requires identical admission decisions (experiment E10).
func TestLiveMatchesDESDecisions(t *testing.T) {
	type scenario struct {
		name string
		par  int     // independent tasks
		dur  float64 // per-task duration
		dl   float64 // relative deadline
		want Outcome
	}
	scenarios := []scenario{
		{"local", 1, 5, 50, AcceptedLocal},
		// Deadline 19 < 20 (serial) forces distribution while leaving ~4
		// virtual units of margin over protocol latency and real jitter.
		{"distributed", 2, 10, 19, AcceptedDistributed},
		{"impossible", 2, 10, 3, Rejected},
	}
	// On the live transport message handling takes real time that the
	// DES models as zero, so the timeouts derived from link delays alone
	// (enrollment window, release padding) need real slack. The same config
	// drives both transports; the DES outcome is insensitive to the extra
	// slack because every site answers immediately in virtual time.
	cfg := DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			topo := fastLine(3)
			des := mustCluster(t, topo, cfg)
			dj, err := des.Submit(0, 0, parJob(t, sc.par, sc.dur), sc.dl)
			if err != nil {
				t.Fatal(err)
			}
			runAll(t, des)
			if dj.Outcome != sc.want {
				t.Fatalf("DES outcome %v, want %v", dj.Outcome, sc.want)
			}

			// The live clock is wall-clock-driven: the scale must dwarf Go
			// scheduling jitter or real latency eats the virtual deadline.
			live, err := NewLiveCluster(topo, cfg, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			lj, err := live.Submit(0, 0, parJob(t, sc.par, sc.dur), sc.dl)
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

// TestLiveAllIdleDuringTraffic calls AllIdle concurrently with protocol
// activity. The probe is routed through each site's execution context, so
// under -race this test proves the check no longer reads site state from a
// foreign goroutine (the seed's Cluster.AllIdle raced with handlers here).
func TestLiveAllIdleDuringTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	topo := fastLine(3)
	live, err := NewLiveCluster(topo, cfg, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// Distribution-forcing deadline (as in TestLiveMatchesDESDecisions) keeps
	// lock/transaction traffic flowing between the sites while we probe.
	job, err := live.Submit(0, 0, parJob(t, 2, 10), 19)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			live.AllIdle() // value irrelevant mid-run; must not race
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	if !live.Wait(30 * time.Second) {
		t.Fatal("live cluster did not quiesce")
	}
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome %v, want %v", job.Outcome, AcceptedDistributed)
	}
	if !live.AllIdle() {
		t.Fatal("cluster not idle after quiescence")
	}
}

// TestLiveSubmitValidatesLikeDES: every entry point — the DES cluster, the
// live cluster and a node — submits through the one Cluster.Submit and must
// reject the same invalid submissions, instead of silently clamping
// negative arrival times.
func TestLiveSubmitValidatesLikeDES(t *testing.T) {
	topo := fastLine(2)
	g := parJob(t, 1, 5)
	des := mustCluster(t, topo, DefaultConfig())
	live, err := NewLiveCluster(topo, DefaultConfig(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// Invalid submissions are refused before they reach the transport, so
	// the node's is never started.
	node, err := NewNode(topo, DefaultConfig(), simnet.NewLive(topo, 100*time.Microsecond), 0)
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

// TestTwoHostsMatchLiveAndDES runs an 8-site ring as two hosts of four
// sites each over one live transport. The hosts interleave (even sites,
// odd sites), so every neighbor of every site lives in the other host and
// any distributed job must be committed by members that adopt its record
// from the CommitMsg. On the scenarios of TestLiveMatchesDESDecisions,
// submitted once from each host, the two hosts must decide like the
// all-local live cluster and the DES — the proof that adoption is keyed on
// "initiator not hosted here" and that nothing assumes a host runs one site
// or all of them.
func TestTwoHostsMatchLiveAndDES(t *testing.T) {
	cfg := DefaultConfig()
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
	type submitFn func(at float64, origin graph.NodeID, g *dag.Graph, dl float64) (*Job, error)
	submitAll := func(hostOf func(origin graph.NodeID) submitFn) []*Job {
		var jobs []*Job
		for _, w := range workload {
			j, err := hostOf(w.origin)(w.at, w.origin, parJob(t, w.par, w.dur), w.dl)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		return jobs
	}
	// decisions lists, per origin, the outcomes in submission order.
	decisions := func(jobs []*Job) map[graph.NodeID][]Outcome {
		out := make(map[graph.NodeID][]Outcome)
		for _, j := range jobs {
			out[j.Origin] = append(out[j.Origin], j.Outcome)
		}
		return out
	}

	des := mustCluster(t, ring(), cfg)
	desJobs := submitAll(func(graph.NodeID) submitFn { return des.Submit })
	runAll(t, des)
	want := decisions(desJobs)
	for origin, got := range want {
		if !reflect.DeepEqual(got, []Outcome{AcceptedLocal, AcceptedDistributed, Rejected}) {
			t.Fatalf("DES decisions at origin %d: %v", origin, got)
		}
	}

	lc, err := NewLiveCluster(ring(), cfg, scale)
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
	tr := simnet.NewLive(topo, scale)
	defer tr.Close()
	hosts := make([]*Cluster, 2)
	for h := range hosts {
		var local []graph.NodeID
		for id := h; id < topo.Len(); id += 2 {
			local = append(local, graph.NodeID(id))
		}
		if hosts[h], err = newHost(topo, cfg, tr, local); err != nil {
			t.Fatal(err)
		}
	}
	tr.Start()
	for _, h := range hosts {
		h.startBootstrap()
	}
	if !tr.WaitIdle(30 * time.Second) {
		t.Fatal("two-host bootstrap did not quiesce")
	}
	for _, h := range hosts {
		if err := h.finishBootstrap(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hosts[0].Submit(0, 1, parJob(t, 1, 5), 50); err == nil {
		t.Fatal("a host accepted a job for a site it does not run")
	}
	hostJobs := submitAll(func(origin graph.NodeID) submitFn { return hosts[origin%2].Submit })
	if !tr.WaitIdle(60 * time.Second) {
		t.Fatal("two hosts did not quiesce")
	}
	if got := decisions(hostJobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("two hosts decided %v, DES %v", got, want)
	}
	for h, host := range hosts {
		if v := host.Violations(); len(v) != 0 {
			t.Fatalf("host %d violations: %v", h, v)
		}
		if !host.AllIdle() {
			t.Fatalf("host %d holds locks or open transactions after quiescence", h)
		}
	}
}

// TestLiveClusterHier: Config.Hier on the live transport builds the region
// layout, runs the two-phase bootstrap and adopts hier.Tables once WaitIdle
// reports the network drained — the same bootstrap code as the DES, where
// it used to run flat tables under a HierSphere policy without saying so.
func TestLiveClusterHier(t *testing.T) {
	topo := hierTopo(32, 5)
	cfg := DefaultConfig()
	cfg.Hier = true
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 10
	des := mustCluster(t, topo, cfg)
	live, err := NewLiveCluster(topo, cfg, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if live.Layout() == nil {
		t.Fatal("live hier cluster has no layout")
	}
	for _, s := range live.sites {
		if s.hierTable == nil {
			t.Fatalf("site %d runs a flat table under Config.Hier", s.id)
		}
	}
	wantBytes, wantEntries := des.RoutingState()
	if gotBytes, gotEntries := live.RoutingState(); gotBytes != wantBytes || gotEntries != wantEntries {
		t.Fatalf("live routing state (%d B, %d entries), DES (%d B, %d entries)",
			gotBytes, gotEntries, wantBytes, wantEntries)
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
	job, err := live.Submit(0, origin, parJob(t, 2, 40), 70)
	if err != nil {
		t.Fatal(err)
	}
	if !live.Wait(60 * time.Second) {
		t.Fatal("live hier cluster did not quiesce")
	}
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome = %v (stage %q), want accepted-distributed", job.Outcome, job.RejectStage)
	}
	if got := live.Summarize().CrossRegionMessages; got != 0 {
		t.Fatalf("region-local job crossed region boundaries %d times", got)
	}
	if v := live.Violations(); len(v) != 0 {
		t.Fatalf("live violations: %v", v)
	}
}

func TestLiveClusterBootstrap(t *testing.T) {
	topo := fastLine(4)
	live, err := NewLiveCluster(topo, DefaultConfig(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	msgs, _ := live.BootstrapCost()
	// Same bootstrap cost formula as the DES cluster.
	want := int64((2*DefaultConfig().Radius - 1) * 2 * topo.NumEdges())
	if msgs != want {
		t.Fatalf("live bootstrap messages %d, want %d", msgs, want)
	}
	for id := 0; id < 4; id++ {
		if len(live.SiteSphere(graph.NodeID(id))) == 0 {
			t.Fatalf("site %d has empty sphere", id)
		}
	}
}

// TestLiveClusterUnderLossAndJitter runs the live (goroutine-backed)
// transport with injected message loss, delay jitter and a transient site
// outage: whatever is lost, Wait must reach quiescence (no wedged locks —
// the phase timeouts and lock leases must fire), every job must be decided,
// and no site may end holding reservations of a rejected job. Run under
// -race in CI, this also exercises the injector from concurrent senders.
func TestLiveClusterUnderLossAndJitter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	cfg.Faults = &simnet.FaultPlan{
		Seed:      7,
		Loss:      0.25,
		MaxJitter: 0.5,
		Crashes:   []simnet.Crash{{Site: 2, At: 6, For: 6}},
	}
	topo := fastLine(4)
	live, err := NewLiveCluster(topo, cfg, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var jobs []*Job
	for i := 0; i < 10; i++ {
		// Serial needs 20 > deadline 19: every job must try to distribute,
		// crossing the lossy links in every protocol phase.
		j, err := live.Submit(float64(i)*2, graph.NodeID(i%4), parJob(t, 2, 10), 19)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if !live.Wait(60 * time.Second) {
		t.Fatal("live cluster did not quiesce under faults: wedged lock or timer")
	}
	if !live.AllIdle() {
		t.Fatal("sites hold locks or open transactions after quiescence")
	}
	rejected := make(map[string]bool)
	for _, j := range jobs {
		if j.Outcome == Pending {
			t.Errorf("job %s never decided", j.ID)
		}
		if j.Outcome == Rejected {
			rejected[j.ID] = true
		}
	}
	for site, jobIDs := range live.ReservationJobIDs() {
		for _, id := range jobIDs {
			if rejected[id] {
				t.Errorf("site %d retains reservations of rejected job %s", site, id)
			}
		}
	}
}
