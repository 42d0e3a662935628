package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero delay accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Error("negative delay accepted")
	}
	if err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN delay accepted")
	}
	if err := g.AddEdge(0, 1, 1.5); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 0, 2); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	d, err := g.EdgeDelay(1, 0)
	if err != nil || d != 1.5 {
		t.Errorf("EdgeDelay(1,0) = %v, %v; want 1.5", d, err)
	}
	if _, err := g.EdgeDelay(1, 2); err == nil {
		t.Error("EdgeDelay on missing edge did not error")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.MustAddEdge(2, 4, 1)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(2, 1, 1)
	ns := g.Neighbors(2)
	for i := 1; i < len(ns); i++ {
		if ns[i-1].To >= ns[i].To {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
	if len(ns) != 4 {
		t.Fatalf("degree = %d, want 4", len(ns))
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	if g.Connected() {
		t.Error("4 isolated nodes reported connected")
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if g.Connected() {
		t.Error("two components reported connected")
	}
	g.MustAddEdge(1, 2, 1)
	if !g.Connected() {
		t.Error("path graph reported disconnected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Error("trivial graphs reported disconnected")
	}
}

func TestDijkstraTriangleViolation(t *testing.T) {
	// Direct edge 0—2 is more expensive than the two-hop path: the paper
	// explicitly allows triangle-inequality violations.
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 10)
	res := g.Dijkstra(0)
	if res[2].Dist != 2 {
		t.Fatalf("dist(0,2) = %v, want 2 via node 1", res[2].Dist)
	}
	if res[2].Hops != 2 || res[2].Prev != 1 {
		t.Fatalf("path info = %+v, want hops=2 prev=1", res[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	res := g.Dijkstra(0)
	if res[2].Dist != Inf || res[2].Hops != -1 {
		t.Fatalf("unreachable node: %+v", res[2])
	}
}

// Property: hop counts from HopDistances match Dijkstra on unit-delay graphs.
func TestPropertyUnitDelayHopsEqualDistance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomConnected(10, 3, UnitDelay, seed)
		for src := NodeID(0); int(src) < g.Len(); src++ {
			hops := g.HopDistances(src)
			dij := g.Dijkstra(src)
			for v := 0; v < g.Len(); v++ {
				if float64(hops[v]) != dij[v].Dist {
					t.Fatalf("seed %d: hop %d vs dist %v at node %d", seed, hops[v], dij[v].Dist, v)
				}
			}
		}
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
		nodes int
		edges int // -1 to skip check
	}{
		{"ring", func() *Graph { return Ring(8, UnitDelay, 1) }, 8, 8},
		{"line", func() *Graph { return Line(8, UnitDelay, 1) }, 8, 7},
		{"star", func() *Graph { return Star(8, UnitDelay, 1) }, 8, 7},
		{"clique", func() *Graph { return Clique(6, UnitDelay, 1) }, 6, 15},
		{"grid", func() *Graph { return Grid(3, 4, UnitDelay, 1) }, 12, 17},
		{"torus", func() *Graph { return Torus(3, 3, UnitDelay, 1) }, 9, 18},
		{"hypercube", func() *Graph { return Hypercube(4, UnitDelay, 1) }, 16, 32},
		{"tree", func() *Graph { return RandomTree(20, UnitDelay, 1) }, 20, 19},
		{"random", func() *Graph { return RandomConnected(20, 4, UnitDelay, 1) }, 20, -1},
		{"geometric", func() *Graph { return RandomGeometric(20, 0.25, DelayRange{1, 5}, 1) }, 20, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if g.Len() != tc.nodes {
				t.Fatalf("nodes = %d, want %d", g.Len(), tc.nodes)
			}
			if tc.edges >= 0 && g.NumEdges() != tc.edges {
				t.Fatalf("edges = %d, want %d", g.NumEdges(), tc.edges)
			}
			if !g.Connected() {
				t.Fatal("generator produced disconnected graph")
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomConnected(30, 4, DelayRange{1, 10}, 42)
	b := RandomConnected(30, 4, DelayRange{1, 10}, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for u := NodeID(0); int(u) < a.Len(); u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("node %d: different degrees", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d: adjacency differs", u)
			}
		}
	}
}

func TestGenerateDispatch(t *testing.T) {
	kinds := []TopologyKind{TopoRing, TopoLine, TopoStar, TopoClique, TopoGrid,
		TopoTorus, TopoHypercube, TopoTree, TopoRandom, TopoGeometric}
	for _, k := range kinds {
		g, err := Generate(k, 16, UnitDelay, 7)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !g.Connected() {
			t.Fatalf("%s: disconnected", k)
		}
	}
	if _, err := Generate("nope", 16, UnitDelay, 7); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRandomConnectedAvgDegree(t *testing.T) {
	g := RandomConnected(100, 6, UnitDelay, 3)
	got := 2 * float64(g.NumEdges()) / 100
	if math.Abs(got-6) > 0.2 {
		t.Fatalf("avg degree %v, want ~6", got)
	}
}

// Property: all generated random graphs are connected and have positive
// delays on every edge.
func TestPropertyGeneratedGraphsWellFormed(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		kinds := []TopologyKind{TopoRing, TopoGrid, TopoTree, TopoRandom, TopoGeometric, TopoHypercube}
		k := kinds[int(pick)%len(kinds)]
		g, err := Generate(k, 12, DelayRange{1, 7}, seed)
		if err != nil || !g.Connected() {
			return false
		}
		for u := NodeID(0); int(u) < g.Len(); u++ {
			for _, e := range g.Neighbors(u) {
				if e.Delay <= 0 {
					return false
				}
				if !g.HasEdge(e.To, u) {
					return false // symmetry
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayDiameter(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	if d := g.DelayDiameter(); d != 5 {
		t.Fatalf("diameter %v, want 5", d)
	}
}

func BenchmarkDijkstraRandom256(b *testing.B) {
	g := RandomConnected(256, 6, DelayRange{1, 10}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(NodeID(rand.Intn(256)))
	}
}
