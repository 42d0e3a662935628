package core

import (
	"math"
	"testing"

	"repro/internal/core/membership"
	"repro/internal/graph"
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
	// holds its region's table only.
	if entries := c.Summarize().RoutingEntries; entries >= topo.Len() {
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

// TestHierEmptyRegionRejects: a region too small to hold any sphere member
// rejects a job it cannot keep locally at once, as a flat site with an
// empty sphere does — no enrollment crosses the region border.
func TestHierEmptyRegionRejects(t *testing.T) {
	// Two sites, one link: two regions of one site each, so site 0's
	// regional sphere is empty and a job that must distribute has nowhere
	// to go.
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.05)
	cfg := DefaultConfig()
	cfg.Hier = true
	c := mustCluster(t, topo, cfg)

	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != Rejected || job.RejectStage != StageNoSphere {
		t.Fatalf("outcome = %v (stage %q), want rejected at %q",
			job.Outcome, job.RejectStage, StageNoSphere)
	}
	if got := c.Stats().CrossMessages(); got != 0 {
		t.Fatalf("job of a one-site region crossed region boundaries %d times", got)
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
// region's own heartbeats, no other region learns of it, and no message —
// heartbeat, notice, repair flood or digest — crosses a region boundary.
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
	if got := c.Summarize().CrossRegionMessages; got != 0 {
		t.Fatalf("membership crossed region boundaries %d times", got)
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
		assign:    l.Assign,
	}
}

type layoutView struct {
	Landmarks []graph.NodeID
	Members   [][]graph.NodeID
	assign    []int
}

func (v *layoutView) Region(id graph.NodeID) int { return v.assign[id] }

// TestHierDistancesFinite: the ω computation must see finite distances to
// every sphere member from every site.
func TestHierDistancesFinite(t *testing.T) {
	topo := hierTopo(48, 7)
	cfg := DefaultConfig()
	cfg.Hier = true
	c := mustCluster(t, topo, cfg)
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		for _, m := range c.SiteSphere(id) {
			if d := c.sites[id].table.Dist(m); math.IsInf(d, 1) {
				t.Fatalf("site %d has infinite distance to sphere member %d", id, m)
			}
		}
	}
}

// TestHierRouteDigestPinned pins every route of the rtds-hier cluster on
// the 256- and 1,024-site random topologies (degree 4, the suite's link
// delays, seed 1+n): the digest of every site's routes and sphere, and the
// bootstrap's message and byte counts. All are deterministic, so a change
// that moves one route or one bootstrap message fails here; a deliberate
// one updates the pins. The digests and message counts were last moved
// when the landmark flood went; the bytes when a round began to send only
// the lines that changed, which left every digest and count as it was.
func TestHierRouteDigestPinned(t *testing.T) {
	for _, pin := range []struct {
		sites       int
		digest      uint64
		msgs, bytes int64
	}{
		{256, 0x8ff4b578c1c6a5d2, 6070, 184304},
		{1024, 0x135640f89efe520d, 32470, 1332352},
	} {
		cfg := DefaultConfig()
		cfg.Hier = true
		c := mustCluster(t, hierTopo(pin.sites, 1+int64(pin.sites)), cfg)
		msgs, bytes := c.BootstrapCost()
		if got := c.RouteDigest(); got != pin.digest || msgs != pin.msgs || bytes != pin.bytes {
			t.Errorf("%d sites: route digest %016x after %d bootstrap messages of %d B, pinned %016x after %d of %d B",
				pin.sites, got, msgs, bytes, pin.digest, pin.msgs, pin.bytes)
		}
	}
}

// TestHierForeignDestinationHasNoRoute: a routed message addressed to a
// site of another region is refused at its first hop — recorded there as a
// no-route violation, never put on a link.
func TestHierForeignDestinationHasNoRoute(t *testing.T) {
	topo := hierTopo(48, 7)
	cfg := DefaultConfig()
	cfg.Hier = true
	c := mustCluster(t, topo, cfg)
	lay := c.Layout()
	const src = graph.NodeID(0)
	dest := graph.NodeID(-1)
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		if !lay.SameRegion(src, id) {
			dest = id
			break
		}
	}
	c.sites[src].sendTo(dest, EnrollReq{Job: "foreign", Initiator: src, Window: 1})
	if got := c.Stats().Messages(); got != 0 {
		t.Fatalf("a message for another region's site took %d hops", got)
	}
	var noRoute []Event
	for _, e := range c.Events() {
		if e.Kind == EvViolation {
			noRoute = append(noRoute, e)
		}
	}
	if len(noRoute) != 1 || noRoute[0].Cause != CauseNoRoute || noRoute[0].Site != src || noRoute[0].Peer != dest {
		t.Fatalf("violations %+v, want one no-route at site %d toward %d", noRoute, src, dest)
	}
}

// TestHierRoutedTTLBoundsEveryRoute: under the hierarchy the routed TTL is
// bounded by the largest region, not the network — and every intra-region
// route, and every walk along next hops, fits under it.
func TestHierRoutedTTLBoundsEveryRoute(t *testing.T) {
	topo := hierTopo(256, 257)
	cfg := DefaultConfig()
	cfg.Hier = true
	c := mustCluster(t, topo, cfg)
	ttl := c.routedTTL()
	if ttl >= topo.Len() {
		t.Fatalf("routed TTL %d at %d sites is not bounded by the regions", ttl, topo.Len())
	}
	for _, s := range c.sites {
		for _, dest := range s.table.Destinations() {
			if r, _ := s.table.Route(dest); r.PathHops > ttl {
				t.Fatalf("site %d: route to %d has %d hops, TTL %d", s.id, dest, r.PathHops, ttl)
			}
			cur, hops := s.id, 0
			for cur != dest {
				next, ok := c.sites[cur].table.NextHop(dest)
				if !ok {
					t.Fatalf("no route at %d toward %d (from %d)", cur, dest, s.id)
				}
				cur = next
				if hops++; hops > ttl {
					t.Fatalf("walk %d->%d exceeds TTL %d", s.id, dest, ttl)
				}
			}
		}
	}
}
