package hier

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
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

// TestBuildDeliversEverywhere drives the bootstrap and then forwards a
// probe between every ordered pair of region mates using only the per-site
// NextHop answers: every probe must arrive without leaving the region (the
// zero-cross-region-traffic property the regional commit spheres rely on).
// A site of another region has no route: NextHop refuses it.
func TestBuildDeliversEverywhere(t *testing.T) {
	topo := testTopo(96, 3)
	tables, lay, _, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Len()
	for s := graph.NodeID(0); int(s) < n; s++ {
		for d := graph.NodeID(0); int(d) < n; d++ {
			if s == d {
				continue
			}
			if !lay.SameRegion(s, d) {
				if next, ok := tables[s].NextHop(d); ok {
					t.Fatalf("site %d routes toward %d of another region via %d", s, d, next)
				}
				if dist := tables[s].Dist(d); !math.IsInf(dist, 1) {
					t.Fatalf("site %d reports distance %v to %d of another region", s, dist, d)
				}
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
				if !lay.SameRegion(cur, next) {
					t.Fatalf("probe %d->%d left the region at %d->%d", s, d, cur, next)
				}
				cur = next
				if hops++; hops > n {
					t.Fatalf("probe %d->%d looped", s, d)
				}
			}
		}
	}
}

// TestBuildSendsOnlyIntraRegionTables: the bootstrap's whole traffic is
// routing-table messages, and not one of them crosses a region boundary.
func TestBuildSendsOnlyIntraRegionTables(t *testing.T) {
	_, _, stats, err := Build(testTopo(256, 4))
	if err != nil {
		t.Fatal(err)
	}
	kinds := stats.ByKind()
	if len(kinds) != 1 || kinds["pcs.table"] != stats.Messages() || stats.Messages() == 0 {
		t.Fatalf("bootstrap traffic by kind %v, want %d pcs.table messages only", kinds, stats.Messages())
	}
	if got := stats.CrossMessages(); got != 0 {
		t.Fatalf("bootstrap crossed region boundaries %d times", got)
	}
}

// layoutGolden was generated at the commit before NewLayout's eccentricity
// searches shared one distance slice and one queue, and re-hashed without
// the region adjacency when the layout stopped carrying it: the layout is a
// pure function of the topology and must come out identical.
var layoutGolden = map[string]string{
	"ring64":       "fcff4420c3004f95",
	"grid10x10":    "dfd8fc5a00df83ab",
	"tree120":      "9cb745779af9d07e",
	"random256":    "3f965fdf58a5bb1d",
	"random1024":   "7ec74fbb095059d3",
	"geometric200": "1556299381a4155b",
}

// TestLayoutMatchesGolden pins NewLayout — assignment, members, landmarks
// and round counts — over a table of topologies and sizes.
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
		fmt.Fprintln(h, lay.Regions, lay.Assign, lay.Members, lay.Landmarks, lay.Rounds)
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
			intra := tables[site]
			if intra.Len() != len(lay.Members[r]) {
				t.Fatalf("site %d holds %d routes, its region %d members", site, intra.Len(), len(lay.Members[r]))
			}
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

// BenchmarkHierBuild times the whole hierarchical bootstrap on 1,024 random
// sites: layout, every region's rounds on the private discrete-event
// network, and the tables. Run it with -benchmem: the bytes a build
// allocates follow the table lines its rounds send.
func BenchmarkHierBuild(b *testing.B) {
	topo := testTopo(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Build(topo); err != nil {
			b.Fatal(err)
		}
	}
}
