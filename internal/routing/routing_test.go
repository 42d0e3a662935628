package routing

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/simnet"
)

func TestRoundsForRadius(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 3, 3: 5, 4: 7}
	for h, want := range cases {
		if got := RoundsForRadius(h); got != want {
			t.Errorf("RoundsForRadius(%d) = %d, want %d", h, got, want)
		}
	}
}

func TestStartCondition(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 2, 5)
	tbl := NewTable(0, g.Neighbors(0))
	if tbl.Len() != 3 {
		t.Fatalf("start table has %d entries, want 3", tbl.Len())
	}
	r, ok := tbl.Route(1)
	if !ok || r.Dist != 2 || r.NextHop != 1 || r.MinHops != 1 {
		t.Fatalf("route to 1: %+v", r)
	}
	if d := tbl.Dist(3); !math.IsInf(d, 1) {
		t.Fatalf("unknown dest dist %v, want +Inf", d)
	}
	if _, ok := tbl.NextHop(0); ok {
		t.Fatal("NextHop to self should be absent")
	}
}

// lineN builds 0-1-2-...-n-1 with unit delays.
func lineN(n int) *graph.Graph {
	return graph.Line(n, graph.UnitDelay, 1)
}

func TestDistributedLineCoverage(t *testing.T) {
	// After r rounds a node knows destinations up to r+1 edges away.
	g := lineN(8)
	for _, rounds := range []int{1, 3, 5} {
		tables, _, err := Build(g, rounds)
		if err != nil {
			t.Fatal(err)
		}
		t0 := tables[0]
		reach := rounds + 1
		for v := 1; v < 8; v++ {
			d := t0.Dist(graph.NodeID(v))
			if v <= reach && d != float64(v) {
				t.Errorf("rounds=%d: dist(0,%d) = %v, want %d", rounds, v, d, v)
			}
			if v > reach && !math.IsInf(d, 1) {
				t.Errorf("rounds=%d: dist(0,%d) = %v, want unreachable", rounds, v, d)
			}
		}
	}
}

func TestDistributedMatchesCentralOracle(t *testing.T) {
	topos := map[string]*graph.Graph{
		"ring":      graph.Ring(9, graph.DelayRange{Min: 1, Max: 7}, 3),
		"random":    graph.RandomConnected(14, 3.5, graph.DelayRange{Min: 1, Max: 9}, 5),
		"geometric": graph.RandomGeometric(12, 0.35, graph.DelayRange{Min: 1, Max: 4}, 7),
		"grid":      graph.Grid(4, 4, graph.DelayRange{Min: 1, Max: 5}, 9),
	}
	for name, g := range topos {
		for _, h := range []int{1, 2, 3} {
			rounds := RoundsForRadius(h)
			tables, _, err := Build(g, rounds)
			if err != nil {
				t.Fatalf("%s h=%d: %v", name, h, err)
			}
			central := CentralTables(g, rounds)
			for k := graph.NodeID(0); int(k) < g.Len(); k++ {
				oracle := central[k]
				got := tables[k]
				if got.Len() != oracle.Len() {
					t.Fatalf("%s h=%d node %d: %d entries vs oracle %d",
						name, h, k, got.Len(), oracle.Len())
				}
				for _, dest := range oracle.Destinations() {
					or, _ := oracle.Route(dest)
					gr, ok := got.Route(dest)
					if !ok {
						t.Fatalf("%s h=%d node %d: missing dest %d", name, h, k, dest)
					}
					if math.Abs(or.Dist-gr.Dist) > 1e-9 || or.MinHops != gr.MinHops ||
						or.NextHop != gr.NextHop || or.PathHops != gr.PathHops {
						t.Fatalf("%s h=%d node %d dest %d: got %+v oracle %+v",
							name, h, k, dest, gr, or)
					}
				}
			}
		}
	}
}

func TestTriangleInequalityViolationRouting(t *testing.T) {
	// Direct link 0—2 is slower than the 2-edge path through 1. After enough
	// rounds the min-delay route uses 2 edges but MinHops stays 1.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 10)
	tables, _, err := Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tables[0].Route(2)
	if r.Dist != 2 || r.NextHop != 1 || r.PathHops != 2 {
		t.Fatalf("min-delay route: %+v, want dist 2 via 1", r)
	}
	if r.MinHops != 1 {
		t.Fatalf("MinHops = %d, want 1 (direct link exists)", r.MinHops)
	}
	// Sphere of radius 1 must therefore contain node 2.
	sph := tables[0].Sphere(1)
	if len(sph) != 3 {
		t.Fatalf("sphere(1) = %v, want all three nodes", sph)
	}
}

func TestSphereMatchesBFSOracle(t *testing.T) {
	g := graph.RandomConnected(20, 3, graph.DelayRange{Min: 1, Max: 9}, 11)
	for _, h := range []int{1, 2, 3} {
		tables, _, err := Build(g, RoundsForRadius(h))
		if err != nil {
			t.Fatal(err)
		}
		for k := graph.NodeID(0); int(k) < g.Len(); k++ {
			want := OracleSphere(g, k, h)
			got := tables[k].Sphere(h)
			if len(got) != len(want) {
				t.Fatalf("h=%d node %d: sphere %v, oracle %v", h, k, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("h=%d node %d: sphere %v, oracle %v", h, k, got, want)
				}
			}
		}
	}
}

func TestSphereDelayDiameter(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 2, 7)
	g.MustAddEdge(2, 3, 1)
	tables, _, err := Build(g, RoundsForRadius(1))
	if err != nil {
		t.Fatal(err)
	}
	if d := tables[0].SphereDelayDiameter(1); d != 7 {
		t.Fatalf("sphere diameter %v, want 7", d)
	}
}

func TestConstructionMessageCount(t *testing.T) {
	// Every node sends its table to every neighbor once per round:
	// total messages = rounds * sum(degrees) = rounds * 2E.
	g := graph.Ring(10, graph.UnitDelay, 1)
	for _, rounds := range []int{1, 2, 5} {
		_, stats, err := Build(g, rounds)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(rounds * 2 * g.NumEdges())
		if stats.Messages() != want {
			t.Fatalf("rounds=%d: %d messages, want %d", rounds, stats.Messages(), want)
		}
	}
}

func TestZeroRounds(t *testing.T) {
	g := lineN(3)
	tables, stats, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages() != 0 {
		t.Fatalf("0 rounds sent %d messages", stats.Messages())
	}
	// Tables hold only the start condition.
	if tables[0].Len() != 2 {
		t.Fatalf("start table has %d entries", tables[0].Len())
	}
}

func TestRouteForwardingReachesDestination(t *testing.T) {
	// Following NextHop pointers from any source must reach any destination
	// known to the table, in PathHops steps, accumulating exactly Dist.
	g := graph.RandomConnected(16, 3, graph.DelayRange{Min: 1, Max: 9}, 13)
	rounds := RoundsForRadius(3)
	tables, _, err := Build(g, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for src := graph.NodeID(0); int(src) < g.Len(); src++ {
		for _, dest := range tables[src].Destinations() {
			if dest == src {
				continue
			}
			r, _ := tables[src].Route(dest)
			cur := src
			total := 0.0
			steps := 0
			for cur != dest {
				nh, ok := tables[cur].NextHop(dest)
				if !ok {
					t.Fatalf("forwarding stuck at %d toward %d", cur, dest)
				}
				d, err := g.EdgeDelay(cur, nh)
				if err != nil {
					t.Fatalf("next hop %d->%d is not a link", cur, nh)
				}
				total += d
				cur = nh
				steps++
				if steps > g.Len() {
					t.Fatalf("forwarding loop from %d to %d", src, dest)
				}
			}
			// The downstream tables may know even shorter paths than src's
			// estimate (they can see further), so the realized delay can be
			// <= the table's Dist, never more.
			if total > r.Dist+1e-9 {
				t.Fatalf("forwarding from %d to %d cost %v > table dist %v", src, dest, total, r.Dist)
			}
		}
	}
}

func BenchmarkBuildRing64Radius3(b *testing.B) {
	g := graph.Ring(64, graph.DelayRange{Min: 1, Max: 5}, 1)
	rounds := RoundsForRadius(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(g, rounds); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTablesBeforeStartAreBuffered is the deterministic regression test for
// the live-transport race: a node that receives neighbors' round-0 tables
// BEFORE its own Start must buffer them — advancing early would skip its own
// round-0 broadcast and stall the whole protocol.
func TestTablesBeforeStartAreBuffered(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	type sent struct {
		to  graph.NodeID
		msg TableMsg
	}
	var out0 []sent
	n0 := NewNode(0, g.Neighbors(0), 1,
		func(to graph.NodeID, p simnet.Payload) { out0 = append(out0, sent{to, p.(TableMsg)}) },
		nil)
	// Neighbor's round-0 table arrives before Start.
	n0.HandleTable(1, TableMsg{Round: 0, Entries: []WireRoute{
		{Dest: 1, Dist: 0, PathHops: 0, MinHops: 0},
		{Dest: 0, Dist: 1, PathHops: 1, MinHops: 1},
	}})
	if n0.Done() {
		t.Fatal("node finished before Start")
	}
	if len(out0) != 0 {
		t.Fatalf("node sent %d messages before Start", len(out0))
	}
	n0.Start()
	if !n0.Done() {
		t.Fatal("single-round node did not finish after Start with buffered input")
	}
	// Exactly one broadcast (its own round 0) must have gone out.
	if len(out0) != 1 || out0[0].to != 1 || out0[0].msg.Round != 0 {
		t.Fatalf("sends after Start: %+v", out0)
	}
}

// TestZeroRoundNodeFinishesImmediately covers the degenerate configurations.
func TestDegenerateNodes(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	finished := false
	n := NewNode(0, g.Neighbors(0), 0, func(graph.NodeID, simnet.Payload) {
		t.Fatal("zero-round node sent a message")
	}, func(*Table) { finished = true })
	n.Start()
	if !finished || !n.Done() {
		t.Fatal("zero-round node did not finish immediately")
	}
	// Isolated node (no neighbors) finishes immediately too.
	iso := NewNode(0, nil, 5, func(graph.NodeID, simnet.Payload) {
		t.Fatal("isolated node sent a message")
	}, nil)
	iso.Start()
	if !iso.Done() {
		t.Fatal("isolated node did not finish")
	}
	// Stragglers after interruption are dropped silently.
	iso.HandleTable(1, TableMsg{Round: 9})
}

// ringN builds an n-cycle with uniform delay 1.
func ringN(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1)
	}
	return g
}

// TestMergeSnapshotRoundTrip: the exported Merge/Snapshot pair (the repair
// re-flood primitives) reproduces what the bootstrap protocol computes.
func TestMergeSnapshotRoundTrip(t *testing.T) {
	topo := lineN(3)
	t0 := NewTable(0, topo.Neighbors(0))
	t1 := NewTable(1, topo.Neighbors(1))
	if !t0.Merge(1, 1, t1.Snapshot()) {
		t.Fatal("merge of new information reported no change")
	}
	if d := t0.Dist(2); d != 2 {
		t.Fatalf("dist to 2 after merge = %v, want 2", d)
	}
	if nh, _ := t0.NextHop(2); nh != 1 {
		t.Fatalf("next hop to 2 = %v, want 1", nh)
	}
	if t0.Merge(1, 1, t1.Snapshot()) {
		t.Fatal("idempotent re-merge reported a change")
	}
}

func TestCentralTablesMatchBuild(t *testing.T) {
	topo := ringN(6)
	rounds := RoundsForRadius(2)
	want, _, err := Build(topo, rounds)
	if err != nil {
		t.Fatal(err)
	}
	got := CentralTables(topo, rounds)
	for id, tb := range got {
		for _, dest := range tb.Destinations() {
			w, _ := want[graph.NodeID(id)].Route(dest)
			g, _ := tb.Route(dest)
			if w != g {
				t.Fatalf("node %d route to %d: central %+v != build %+v", id, dest, g, w)
			}
		}
		if tb.Len() != want[graph.NodeID(id)].Len() {
			t.Fatalf("node %d table size %d != %d", id, tb.Len(), want[graph.NodeID(id)].Len())
		}
	}
}
