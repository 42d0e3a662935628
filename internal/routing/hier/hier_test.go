package hier

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

func testTopo(n int, seed int64) *graph.Graph {
	return graph.RandomConnected(n, 4, graph.DelayRange{Min: 0.05, Max: 0.3}, seed)
}

func TestLayoutDeterministicAndConnected(t *testing.T) {
	topo := testTopo(128, 7)
	a, err := NewLayout(topo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLayout(topo)
	if err != nil {
		t.Fatal(err)
	}
	if a.Regions != RegionsFor(128) {
		t.Fatalf("Regions = %d, want %d", a.Regions, RegionsFor(128))
	}
	for r := 0; r < a.Regions; r++ {
		if a.Landmarks[r] != b.Landmarks[r] {
			t.Fatalf("region %d: landmark %d vs %d across runs", r, a.Landmarks[r], b.Landmarks[r])
		}
		if got := a.Assign[a.Landmarks[r]]; got != r {
			t.Fatalf("region %d: landmark %d lives in region %d", r, a.Landmarks[r], got)
		}
		if len(a.Members[r]) == 0 {
			t.Fatalf("region %d empty", r)
		}
	}
	for v, r := range a.Assign {
		if r != b.Assign[v] {
			t.Fatalf("site %d: region %d vs %d across runs", v, r, b.Assign[v])
		}
	}
}

// TestBuildDeliversEverywhere drives the full two-phase bootstrap and then
// forwards a probe between every ordered site pair using only the
// per-site NextHop answers: every probe must arrive, and probes between
// region mates must never leave the region (the zero-cross-region-traffic
// property the regional commit spheres rely on).
func TestBuildDeliversEverywhere(t *testing.T) {
	topo := testTopo(96, 3)
	tables, lay, _, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Len()
	maxHops := 4 * n // generous loop guard; gradient routing is loop-free
	for s := graph.NodeID(0); int(s) < n; s++ {
		for d := graph.NodeID(0); int(d) < n; d++ {
			if s == d {
				continue
			}
			cur, hops := s, 0
			for cur != d {
				next, ok := tables[cur].NextHop(d)
				if !ok {
					t.Fatalf("no route at %d toward %d (from %d)", cur, d, s)
				}
				if !topo.HasEdge(cur, next) {
					t.Fatalf("table at %d forwards to non-neighbor %d", cur, next)
				}
				if lay.SameRegion(s, d) && !lay.SameRegion(cur, next) {
					t.Fatalf("intra-region probe %d->%d left the region at %d->%d", s, d, cur, next)
				}
				cur = next
				if hops++; hops > maxHops {
					t.Fatalf("probe %d->%d looped", s, d)
				}
			}
		}
	}
}

// layoutGolden was generated at the commit before NewLayout's eccentricity
// searches shared one distance slice and one queue: the layout is a pure
// function of the topology and must come out identical.
var layoutGolden = map[string]string{
	"ring64":       "bd3fae9c5c9cbcdb",
	"grid10x10":    "bd7b463ea3eb9ab9",
	"tree120":      "fb5b84df4c27edaa",
	"random256":    "9edec786aefb4761",
	"random1024":   "e44ea89ce6dfaff0",
	"geometric200": "c7ef24435c980aac",
}

// TestLayoutMatchesGolden pins NewLayout — assignment, members, landmarks,
// round counts and region adjacency — over a table of topologies and sizes.
func TestLayoutMatchesGolden(t *testing.T) {
	std := graph.DelayRange{Min: 0.05, Max: 0.3}
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring64", graph.Ring(64, graph.UnitDelay, 1)},
		{"grid10x10", graph.Grid(10, 10, std, 2)},
		{"tree120", graph.RandomTree(120, std, 3)},
		{"random256", testTopo(256, 4)},
		{"random1024", testTopo(1024, 5)},
		{"geometric200", graph.RandomGeometric(200, 0.15, std, 6)},
	}
	for _, tc := range topos {
		lay, err := NewLayout(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		fmt.Fprintln(h, lay.Regions, lay.Assign, lay.Members, lay.Landmarks, lay.Rounds, lay.Adjacent)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != layoutGolden[tc.name] {
			t.Errorf("%q: %q, // golden %q", tc.name, got, layoutGolden[tc.name])
		}
	}
}

func TestIntraTableMatchesRegionOracle(t *testing.T) {
	topo := testTopo(64, 11)
	tables, lay, _, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	// The intra table of each site must equal the flat protocol's table
	// over the region's induced subgraph at the region's round count.
	for r := 0; r < lay.Regions; r++ {
		sub, remap := regionSubgraph(topo, lay, r)
		oracle := routing.CentralTables(sub, lay.Rounds[r])
		for local, site := range lay.Members[r] {
			intra := tables[site].Intra()
			for localD, siteD := range lay.Members[r] {
				want := oracle[local].Dist(graph.NodeID(localD))
				got := intra.Dist(siteD)
				if got != want {
					t.Fatalf("region %d: dist %d->%d = %v, oracle %v", r, site, siteD, got, want)
				}
			}
			_ = remap
		}
	}
}

// regionSubgraph builds the induced subgraph of region r with nodes
// renumbered to 0..len(members)-1 in member order.
func regionSubgraph(topo *graph.Graph, lay *Layout, r int) (*graph.Graph, map[graph.NodeID]graph.NodeID) {
	members := lay.Members[r]
	remap := make(map[graph.NodeID]graph.NodeID, len(members))
	for i, m := range members {
		remap[m] = graph.NodeID(i)
	}
	sub := graph.New(len(members))
	for _, m := range members {
		for _, e := range topo.Neighbors(m) {
			if lay.Assign[e.To] == r && m < e.To {
				sub.MustAddEdge(remap[m], remap[e.To], e.Delay)
			}
		}
	}
	return sub, remap
}

// TestStateSubLinear pins the headline: per-site state entries grow like
// √n, not n. At 1,024 sites the largest per-site state must stay under an
// eighth of the flat table's n entries.
func TestStateSubLinear(t *testing.T) {
	topo := testTopo(1024, 1)
	tables, _, _, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		if e := tables[id].StateEntries(); e > worst {
			worst = e
		}
	}
	if worst >= 1024/8 {
		t.Fatalf("worst per-site state %d entries at n=1024; want sub-linear (< %d)", worst, 1024/8)
	}
}

func TestAdjacentLandmarks(t *testing.T) {
	topo := testTopo(64, 5)
	tables, lay, _, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		r := lay.Region(id)
		adj := tables[id].AdjacentLandmarks()
		if len(adj) != len(lay.Adjacent[r]) {
			t.Fatalf("site %d: %d adjacent landmarks, %d adjacent regions", id, len(adj), len(lay.Adjacent[r]))
		}
		for _, lm := range adj {
			if lay.Region(lm) == r {
				t.Fatalf("site %d: adjacent landmark %d is in its own region", id, lm)
			}
			if lay.Landmarks[lay.Region(lm)] != lm {
				t.Fatalf("site %d: %d is not the landmark of region %d", id, lm, lay.Region(lm))
			}
		}
	}
}

// TestHandleAdAllocations pins the landmark relaxation's cost: an ad that
// does not improve the vector — the flood's usual case — allocates nothing,
// and an improving one allocates exactly the one box its re-broadcast
// shares among every neighbor.
func TestHandleAdAllocations(t *testing.T) {
	topo := testTopo(64, 5)
	lay, err := NewLayout(topo)
	if err != nil {
		t.Fatal(err)
	}
	const site = graph.NodeID(0)
	nbrs := topo.Neighbors(site)
	if len(nbrs) < 2 {
		t.Fatalf("site %d has %d neighbors; the pin needs a broadcast to several", site, len(nbrs))
	}
	sends := 0
	b := NewBootstrap(site, nbrs, lay, func(graph.NodeID, simnet.Payload) { sends++ })
	r := (lay.Region(site) + 1) % lay.Regions
	from := nbrs[0].To
	dist := 1e6
	improving := testing.AllocsPerRun(100, func() {
		dist--
		b.HandleAd(from, LandmarkAd{Region: r, Landmark: lay.Landmarks[r], Dist: dist, Hops: 3})
	})
	if improving != 1 {
		t.Fatalf("an improving ad allocates %v times, want 1 (one box for %d neighbors)", improving, len(nbrs))
	}
	if sends != 101*len(nbrs) {
		t.Fatalf("%d sends for 101 improvements to %d neighbors", sends, len(nbrs))
	}
	stale := testing.AllocsPerRun(100, func() {
		b.HandleAd(from, LandmarkAd{Region: r, Landmark: lay.Landmarks[r], Dist: 1e9, Hops: 3})
	})
	if stale != 0 {
		t.Fatalf("a non-improving ad allocates %v times, want 0", stale)
	}
	stray := testing.AllocsPerRun(100, func() {
		b.HandleAd(site, LandmarkAd{Region: r, Landmark: lay.Landmarks[r], Dist: 0, Hops: 0})
	})
	if stray != 0 || sends != 101*len(nbrs) {
		t.Fatalf("a non-neighbor's ad allocated %v times or was relayed", stray)
	}
}

// TestPartialVectorCountsKnownRegions: on a vector some regions never
// reached, state is counted over known lines only and every query skips the
// unknown slots — the converged case has every slot known, where the two
// counts coincide.
func TestPartialVectorCountsKnownRegions(t *testing.T) {
	topo := testTopo(96, 3)
	tables, lay, _, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	const site = graph.NodeID(7)
	full := tables[site]
	if full.StateEntries() != full.Intra().StateEntries()+lay.Regions {
		t.Fatalf("converged table counts %d entries, want intra %d + %d regions",
			full.StateEntries(), full.Intra().StateEntries(), lay.Regions)
	}
	vec := append([]Landmark(nil), full.vec...)
	known := lay.Regions
	var missing []int
	for r := range vec {
		if r != lay.Region(site) && r%3 == 0 {
			vec[r] = unknownLandmark
			missing = append(missing, r)
			known--
		}
	}
	part := NewTable(site, lay, full.Intra(), vec)
	if got, want := part.StateEntries(), full.Intra().StateEntries()+known; got != want {
		t.Fatalf("partial table counts %d entries, want %d", got, want)
	}
	if got, want := part.StateBytes(), full.Intra().StateBytes()+8+landmarkBytes*known; got != want {
		t.Fatalf("partial table counts %d bytes, want %d", got, want)
	}
	for _, r := range missing {
		lm := lay.Landmarks[r]
		if _, ok := part.NextHop(lm); ok {
			t.Fatalf("next hop toward unknown region %d", r)
		}
		if d := part.Dist(lm); !math.IsInf(d, 1) {
			t.Fatalf("distance %v toward unknown region %d", d, r)
		}
		if slices.Contains(part.Destinations(), lm) || slices.Contains(part.AdjacentLandmarks(), lm) {
			t.Fatalf("unknown region %d's landmark %d is listed", r, lm)
		}
	}
	if !slices.IsSorted(part.Destinations()) {
		t.Fatalf("destinations not ascending: %v", part.Destinations())
	}
	if part.MaxVecHops() > full.MaxVecHops() {
		t.Fatalf("partial vector hops %d above the full vector's %d", part.MaxVecHops(), full.MaxVecHops())
	}
}
