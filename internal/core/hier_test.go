package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core/membership"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func hierTopo(n int, seed int64) *graph.Graph {
	return graph.RandomConnected(n, 4, graph.DelayRange{Min: 0.05, Max: 0.3}, seed)
}

// TestHierClusterRegionLocalJobs: a hierarchical cluster bootstraps, resolves
// distributed jobs inside their origin's region, and generates ZERO
// cross-region protocol traffic while doing so — the headline property the
// regional commit spheres buy.
func TestHierClusterRegionLocalJobs(t *testing.T) {
	topo := hierTopo(64, 9)
	cfg := DefaultConfig()
	cfg.Hier = true
	c := mustCluster(t, topo, cfg)

	lay := c.Layout()
	if lay == nil {
		t.Fatal("hier cluster has no layout")
	}
	// Per-site routing state must be sub-linear: under √n regions every site
	// holds its region's table plus one landmark line per region.
	_, entries := c.RoutingState()
	if entries >= topo.Len() {
		t.Fatalf("per-site routing state %d entries at n=%d, want sub-linear", entries, topo.Len())
	}

	// The sphere of every site stays inside its region.
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		for _, m := range c.SiteSphere(id) {
			if !lay.SameRegion(id, m) {
				t.Fatalf("site %d sphere member %d is outside its region", id, m)
			}
		}
	}

	// Pick an origin with a non-trivial region sphere and submit a job that
	// must distribute (two 10-unit tasks, deadline 16).
	origin := graph.NodeID(-1)
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		if len(c.SiteSphere(id)) >= 2 {
			origin = id
			break
		}
	}
	if origin < 0 {
		t.Fatal("no site with a region-local sphere of >= 2")
	}
	job, err := c.Submit(0, origin, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome = %v (stage %q), want accepted-distributed", job.Outcome, job.RejectStage)
	}
	if got := c.Stats().CrossMessages(); got != 0 {
		t.Fatalf("region-local job crossed region boundaries %d times", got)
	}
}

// TestHierEscalation: a region too small to hold any sphere member escalates
// its empty enrollment window to the adjacent region's landmark instead of
// rejecting — and the resulting ACS genuinely crosses the region border.
func TestHierEscalation(t *testing.T) {
	// Two sites, one link: two regions of one site each. Site 0's regional
	// sphere is empty, so any distributed job must escalate to site 1.
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.05)
	cfg := DefaultConfig()
	cfg.Hier = true
	cfg.TraceEvents = true
	c := mustCluster(t, topo, cfg)

	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome = %v (stage %q), want accepted-distributed via escalation",
			job.Outcome, job.RejectStage)
	}
	escalated := false
	for _, e := range c.Events() {
		if e.Kind == EvEscalate {
			escalated = true
		}
	}
	if !escalated {
		t.Fatal("no escalate event recorded")
	}
	if got := c.Stats().CrossMessages(); got == 0 {
		t.Fatal("escalated job crossed no region boundary")
	}
}

// TestHierDeterministic: two hierarchical clusters over the same topology
// produce identical summaries, and the landmark structure is a pure
// function of the graph.
func TestHierDeterministic(t *testing.T) {
	run := func() (Summary, []graph.NodeID) {
		topo := hierTopo(48, 3)
		cfg := DefaultConfig()
		cfg.Hier = true
		c := mustCluster(t, topo, cfg)
		for i := 0; i < 6; i++ {
			if _, err := c.Submit(float64(i)*5, graph.NodeID(i*7%48), parJob(t, 2, 10), 16); err != nil {
				t.Fatal(err)
			}
		}
		runAll(t, c)
		return c.Summarize(), append([]graph.NodeID(nil), c.Layout().Landmarks...)
	}
	a, la := run()
	b, lb := run()
	if a.String() != b.String() {
		t.Fatalf("summaries differ:\n%s\n%s", a.String(), b.String())
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("landmark %d differs across runs: %d vs %d", i, la[i], lb[i])
		}
	}
}

// TestHierMembershipRegionScoped: with membership armed on a hierarchical
// cluster, a crash inside one region is detected and repaired by the
// region's own heartbeats, the survivors keep routing, and the region's
// landmark shares a liveness digest with its adjacent peers.
func TestHierMembershipRegionScoped(t *testing.T) {
	topo := hierTopo(32, 5)
	cfg := DefaultConfig()
	cfg.Hier = true
	cfg.Membership = membership.Config{
		Enabled: true, HeartbeatEvery: 1, SuspectAfter: 3, Horizon: 40,
	}
	lay := mustLayout(t, topo)
	// Crash a non-landmark site whose region has at least 3 members, so the
	// region stays connected enough to detect and repair.
	victim := graph.NodeID(-1)
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		r := lay.Region(id)
		if lay.Landmarks[r] != id && len(lay.Members[r]) >= 3 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suitable victim")
	}
	cfg.Faults = &simnet.FaultPlan{Crashes: []simnet.Crash{{Site: victim, At: 2}}}
	c := mustCluster(t, topo, cfg)
	runAll(t, c)

	vr := lay.Region(victim)
	sawDigest := false
	for _, snap := range c.MembershipSnapshots() {
		if snap.Self == victim {
			continue
		}
		if lay.Region(snap.Self) == vr {
			// Region mates must have detected the death.
			if snap.Deaths == 0 {
				t.Fatalf("region mate %d of crashed %d saw no death", snap.Self, victim)
			}
		} else if snap.Deaths != 0 {
			// Membership gossip is region-scoped: other regions never learn.
			t.Fatalf("site %d outside region %d learned of the death via gossip", snap.Self, vr)
		}
	}
	// Adjacent landmarks learned through the landmark digest channel instead.
	for _, r := range lay.Adjacent[vr] {
		views := c.RemoteRegionViews(lay.Landmarks[r])
		for _, e := range views[vr] {
			if e.Site == victim && e.Dead {
				sawDigest = true
			}
		}
	}
	if !sawDigest {
		t.Fatalf("no adjacent landmark received region %d's death digest", vr)
	}
}

// mustLayout mirrors the cluster's own layout derivation for test setup.
func mustLayout(t *testing.T, topo *graph.Graph) *layoutView {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hier = true
	c, err := NewCluster(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := c.Layout()
	return &layoutView{
		Landmarks: l.Landmarks,
		Members:   l.Members,
		Adjacent:  l.Adjacent,
		assign:    l.Assign,
	}
}

type layoutView struct {
	Landmarks []graph.NodeID
	Members   [][]graph.NodeID
	Adjacent  [][]int
	assign    []int
}

func (v *layoutView) Region(id graph.NodeID) int { return v.assign[id] }

// TestHierNodeModeRejected: the hierarchy needs a runtime that can await
// network-wide quiescence, which a lone node cannot; the error says so.
func TestHierNodeModeRejected(t *testing.T) {
	topo := fastLine(3)
	cfg := DefaultConfig()
	cfg.Hier = true
	tr := simnet.NewDES(sim.New(), topo)
	_, err := NewNode(topo, cfg, tr, 0)
	if err == nil {
		t.Fatal("NewNode accepted Hier")
	}
	if !strings.Contains(err.Error(), "quiescence") {
		t.Fatalf("refusal does not give the reason: %v", err)
	}
}

// TestHierDistancesFinite: the ω computation must see finite distances to
// every escalation landmark from every site.
func TestHierDistancesFinite(t *testing.T) {
	topo := hierTopo(48, 7)
	cfg := DefaultConfig()
	cfg.Hier = true
	c := mustCluster(t, topo, cfg)
	lay := c.Layout()
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		s := c.sites[id]
		for _, lm := range s.hierTable.EscalationLandmarks() {
			if d := s.table.Dist(lm); math.IsInf(d, 1) {
				t.Fatalf("site %d has infinite distance to escalation landmark %d", id, lm)
			}
		}
		_ = lay
	}
}

// TestHierRouteDigestPinned pins every route of the rtds-hier cluster on
// the 256- and 1,024-site random topologies (degree 4, the suite's link
// delays, seed 1+n): the digest of every site's routes and sphere, and the
// bootstrap's message count. Both are deterministic, so a change that moves
// one route or one bootstrap message fails here; a deliberate one updates
// the pins.
func TestHierRouteDigestPinned(t *testing.T) {
	for _, pin := range []struct {
		sites  int
		digest uint64
		msgs   int64
	}{
		{256, 0xd5f8cfb436a9472b, 22454},
		{1024, 0x9db263b998d279da, 163542},
	} {
		cfg := DefaultConfig()
		cfg.Hier = true
		c := mustCluster(t, hierTopo(pin.sites, 1+int64(pin.sites)), cfg)
		msgs, _ := c.BootstrapCost()
		if got := c.RouteDigest(); got != pin.digest || msgs != pin.msgs {
			t.Errorf("%d sites: route digest %016x after %d bootstrap messages, pinned %016x after %d",
				pin.sites, got, msgs, pin.digest, pin.msgs)
		}
	}
}
