package routing

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// refTable is the map-backed routing table the sorted slice replaced, kept
// as the reference model: every answer of Table must equal its answer.
type refTable struct {
	self   graph.NodeID
	routes map[graph.NodeID]Route
}

func newRefTable(self graph.NodeID, neighbors []graph.Edge) *refTable {
	t := &refTable{self: self, routes: map[graph.NodeID]Route{self: {Dest: self, NextHop: self}}}
	for _, e := range neighbors {
		t.routes[e.To] = Route{Dest: e.To, Dist: e.Delay, NextHop: e.To, PathHops: 1, MinHops: 1}
	}
	return t
}

func (t *refTable) nextHop(dest graph.NodeID) (graph.NodeID, bool) {
	r, ok := t.routes[dest]
	if !ok || dest == t.self {
		return 0, false
	}
	return r.NextHop, true
}

func (t *refTable) dist(dest graph.NodeID) float64 {
	if r, ok := t.routes[dest]; ok {
		return r.Dist
	}
	return math.Inf(1)
}

func (t *refTable) sphere(h int) []graph.NodeID {
	var out []graph.NodeID
	for _, d := range determinism.SortedKeys(t.routes) {
		if t.routes[d].MinHops <= h {
			out = append(out, d)
		}
	}
	return out
}

func (t *refTable) sphereDelayDiameter(h int) float64 {
	var diam float64
	for _, d := range determinism.SortedKeys(t.routes) {
		if r := t.routes[d]; r.MinHops <= h && r.Dist > diam {
			diam = r.Dist
		}
	}
	return diam
}

func (t *refTable) merge(from graph.NodeID, linkDelay float64, entries []WireRoute) bool {
	changed := false
	for _, e := range entries {
		if e.Dest == t.self {
			continue
		}
		cand := Route{Dest: e.Dest, Dist: linkDelay + e.Dist, NextHop: from,
			PathHops: 1 + e.PathHops, MinHops: 1 + e.MinHops}
		cur, ok := t.routes[e.Dest]
		if !ok {
			t.routes[e.Dest] = cand
			changed = true
			continue
		}
		upd := cur
		if cur.better(cand) {
			upd.Dist, upd.NextHop, upd.PathHops = cand.Dist, cand.NextHop, cand.PathHops
		}
		if cand.MinHops < upd.MinHops {
			upd.MinHops = cand.MinHops
		}
		if upd != cur {
			t.routes[e.Dest] = upd
			changed = true
		}
	}
	return changed
}

func (t *refTable) snapshot() []WireRoute {
	var out []WireRoute
	for _, d := range determinism.SortedKeys(t.routes) {
		r := t.routes[d]
		out = append(out, WireRoute{Dest: r.Dest, Dist: r.Dist, PathHops: r.PathHops, MinHops: r.MinHops})
	}
	return out
}

// sameAsRef compares every observable answer of got with the reference.
func sameAsRef(t *testing.T, where string, got *Table, ref *refTable) {
	t.Helper()
	if got.Len() != len(ref.routes) {
		t.Fatalf("%s: Len %d, reference %d", where, got.Len(), len(ref.routes))
	}
	if want := determinism.SortedKeys(ref.routes); !slices.Equal(got.Destinations(), want) {
		t.Fatalf("%s: Destinations %v, reference %v", where, got.Destinations(), want)
	}
	if gs, rs := got.Snapshot(), ref.snapshot(); !slices.Equal(gs, rs) {
		t.Fatalf("%s: Snapshot %v, reference %v", where, gs, rs)
	}
	for d := graph.NodeID(-1); d <= refDests; d++ {
		r, ok := got.Route(d)
		rr, rok := ref.routes[d]
		if ok != rok || r != rr {
			t.Fatalf("%s: Route(%d) = %+v %v, reference %+v %v", where, d, r, ok, rr, rok)
		}
		if g, w := got.Dist(d), ref.dist(d); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Dist(%d) = %v, reference %v", where, d, g, w)
		}
		nh, ok := got.NextHop(d)
		rnh, rok := ref.nextHop(d)
		if nh != rnh || ok != rok {
			t.Fatalf("%s: NextHop(%d) = %d %v, reference %d %v", where, d, nh, ok, rnh, rok)
		}
	}
	for h := 0; h <= 5; h++ {
		if g, w := got.Sphere(h), ref.sphere(h); !slices.Equal(g, w) {
			t.Fatalf("%s: Sphere(%d) = %v, reference %v", where, h, g, w)
		}
		if g, w := got.SphereDelayDiameter(h), ref.sphereDelayDiameter(h); g != w {
			t.Fatalf("%s: SphereDelayDiameter(%d) = %v, reference %v", where, h, g, w)
		}
	}
}

// refDests bounds the destination IDs the property test draws.
const refDests = 24

// randomEntries draws a merge input: sorted and duplicate-free like a
// snapshot or a decoded frame, optionally naming the receiver itself. Distances come from a coarse grid plus jitter below
// distEps, so better's tolerance — and with it the merge order — decides
// many comparisons.
func randomEntries(rng *rand.Rand, self graph.NodeID) []WireRoute {
	n := rng.Intn(12)
	out := make([]WireRoute, 0, n+1)
	for i := 0; i < n; i++ {
		out = append(out, WireRoute{
			Dest:     graph.NodeID(rng.Intn(refDests)),
			Dist:     float64(rng.Intn(3))*0.5 + float64(rng.Intn(3))*6e-10,
			PathHops: rng.Intn(4),
			MinHops:  rng.Intn(4),
		})
	}
	if rng.Intn(4) == 0 {
		out = append(out, WireRoute{Dest: self, Dist: 0.5, PathHops: 1, MinHops: 1})
	}
	slices.SortStableFunc(out, wireByDest)
	return slices.CompactFunc(out, func(a, b WireRoute) bool { return a.Dest == b.Dest })
}

func wireByDest(a, b WireRoute) int { return cmp.Compare(a.Dest, b.Dest) }

// TestTableMatchesMapReference drives the sorted-slice Table and the map
// reference through the same random sequences of Merge (random sorted
// input, some containing self, and real snapshots) and compares every answer
// and every changed bit. Merge must never write its input.
func TestTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := graph.NodeID(rng.Intn(refDests))
		var nbrs []graph.Edge
		for d := graph.NodeID(0); d < refDests; d++ {
			if d != self && rng.Intn(5) == 0 {
				nbrs = append(nbrs, graph.Edge{To: d, Delay: float64(1 + rng.Intn(3))})
			}
		}
		got, ref := NewTable(self, nbrs), newRefTable(self, nbrs)
		sameAsRef(t, "start", got, ref)
		// A second table evolving alongside supplies realistic snapshots.
		peer := NewTable(graph.NodeID((int(self)+1)%refDests), nil)
		for op := 0; op < 60; op++ {
			from := graph.NodeID(rng.Intn(refDests))
			delay := float64(rng.Intn(3)) * 0.5
			entries := randomEntries(rng, self)
			if rng.Intn(3) == 0 {
				peer.Merge(graph.NodeID(rng.Intn(refDests)), 1, randomEntries(rng, peer.Self))
				entries = peer.Snapshot()
			}
			before := slices.Clone(entries)
			changed, want := got.Merge(from, delay, entries), ref.merge(from, delay, entries)
			if changed != want {
				t.Fatalf("seed %d op %d: Merge changed=%v, reference %v (input %v)", seed, op, changed, want, entries)
			}
			if !slices.Equal(entries, before) {
				t.Fatalf("seed %d op %d: Merge wrote its input", seed, op)
			}
			sameAsRef(t, "after op", got, ref)
		}
	}
}

// TestMergeSameShapeAllocatesNothing pins the double buffer: once the table
// and its spare have reached the table's size, merging a snapshot that adds
// no destination allocates nothing.
func TestMergeSameShapeAllocatesNothing(t *testing.T) {
	topo := graph.RandomConnected(64, 4, graph.DelayRange{Min: 1, Max: 9}, 3)
	tables, _, err := Build(topo, RoundsForRadius(3))
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	nbr := topo.Neighbors(0)[0]
	snap := tables[nbr.To].Snapshot()
	tb.Merge(nbr.To, nbr.Delay, snap) // learns whatever the neighbor adds
	tb.Merge(nbr.To, nbr.Delay, snap) // sizes the second backing array
	if n := testing.AllocsPerRun(100, func() { tb.Merge(nbr.To, nbr.Delay, snap) }); n != 0 {
		t.Fatalf("same-shape merge allocates %v times, want 0", n)
	}
}

// TestNonNeighborTableIsDropped: a table from a site that is not a direct
// neighbor — a stray epoch-0 TableMsg over TCP, or an inter-region
// neighbor's table under the hierarchy — is dropped. It used to fill a slot
// of the round, close it early and panic in the merge for want of a link
// delay.
func TestNonNeighborTableIsDropped(t *testing.T) {
	g := lineN(3) // 0-1-2: site 2 is no neighbor of 0
	var sent []TableMsg
	n0 := NewNode(0, g.Neighbors(0), 2,
		func(_ graph.NodeID, p simnet.Payload) { sent = append(sent, p.(TableMsg)) }, nil)
	n0.Start()
	stray := TableMsg{Round: 0, Entries: []WireRoute{{Dest: 2, Dist: 0}}}
	n0.HandleTable(2, stray)
	n0.HandleTable(2, TableMsg{Round: 1, Entries: stray.Entries})
	if len(sent) != 1 || n0.Done() {
		t.Fatalf("a stray table advanced the round: %d broadcasts, done=%v", len(sent), n0.Done())
	}
	if _, ok := n0.Table().Route(2); ok {
		t.Fatal("the stray table's routes were merged")
	}
	// The real neighbor's tables still complete both rounds.
	n1 := NewTable(1, g.Neighbors(1))
	n0.HandleTable(1, TableMsg{Round: 0, Entries: n1.Snapshot()})
	n0.HandleTable(1, TableMsg{Round: 1, Entries: n1.Snapshot()})
	if !n0.Done() {
		t.Fatal("node did not finish on its neighbor's tables")
	}
	if d := n0.Table().Dist(2); d != 2 {
		t.Fatalf("dist to 2 = %v, want 2 via the neighbor", d)
	}
}

// TestNodeMergesNeighborsInIDOrder: whatever order a round's tables arrive
// in, they merge in ascending neighbor ID — the order that decides ties
// under better's tolerance — exactly as CentralTables' synchronous flow.
func TestNodeMergesNeighborsInIDOrder(t *testing.T) {
	topo := graph.RandomConnected(40, 5, graph.DelayRange{Min: 1, Max: 2}, 9)
	rounds := RoundsForRadius(3)
	want := CentralTables(topo, rounds)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type msg struct {
			from, to graph.NodeID
			m        TableMsg
		}
		var queue []msg
		nodes := make([]*Node, topo.Len())
		for id := range nodes {
			id := graph.NodeID(id)
			nodes[id] = NewNode(id, topo.Neighbors(id), rounds, func(to graph.NodeID, p simnet.Payload) {
				queue = append(queue, msg{id, to, p.(TableMsg)})
			}, nil)
		}
		for _, n := range nodes {
			n.Start()
		}
		for len(queue) > 0 { // deliver in random order
			i := rng.Intn(len(queue))
			m := queue[i]
			queue = append(queue[:i], queue[i+1:]...)
			nodes[m.to].HandleTable(m.from, m.m)
		}
		for id, n := range nodes {
			if !n.Done() {
				t.Fatalf("seed %d: node %d did not finish", seed, id)
			}
			if !slices.Equal(routesOf(n.Table()), routesOf(want[id])) {
				t.Fatalf("seed %d: node %d's table differs from the synchronous flow", seed, id)
			}
		}
	}
}

// routesOf lists a table's lines without their change marks, which record
// what the next bootstrap round sends, not what the table holds.
func routesOf(t *Table) []Route {
	out := make([]Route, len(t.routes))
	for i, l := range t.routes {
		out[i] = l.Route
	}
	return out
}

// TestBootstrapSendsOnlyChangedLines: round 0 sends a node's start table and
// every later round exactly the lines whose wire form changed since the
// node's previous round — nothing, once its table has stopped changing —
// while every round still sends one message per neighbor and the tables
// come out as the synchronous full-table flow builds them.
func TestBootstrapSendsOnlyChangedLines(t *testing.T) {
	topo := graph.RandomConnected(40, 4, graph.DelayRange{Min: 1, Max: 9}, 11)
	rounds := RoundsForRadius(5) // well past the diameter: late rounds change nothing
	type msg struct {
		from, to graph.NodeID
		m        TableMsg
	}
	var queue []msg
	nodes := make([]*Node, topo.Len())
	prev := make([][]WireRoute, topo.Len()) // each node's table at its previous round
	sent := make([]int, topo.Len())         // lines each node has sent
	changed := make([]int, topo.Len())      // lines changed between its rounds
	empty := 0
	for id := range nodes {
		id := graph.NodeID(id)
		nodes[id] = NewNode(id, topo.Neighbors(id), rounds, func(to graph.NodeID, p simnet.Payload) {
			m := p.(TableMsg)
			queue = append(queue, msg{id, to, m})
			if to != nodes[id].nbrs[0].To {
				return // one payload goes to every neighbor: check it once
			}
			snap := nodes[id].Table().Snapshot()
			var want []WireRoute
			for _, r := range snap {
				i, ok := slices.BinarySearchFunc(prev[id], r, wireByDest)
				if !ok || prev[id][i] != r {
					want = append(want, r)
				}
			}
			if m.Round > 0 {
				changed[id] += len(want)
			}
			if !slices.Equal(m.Entries, want) {
				t.Fatalf("node %d round %d sent %v, want the lines changed since its previous round %v", id, m.Round, m.Entries, want)
			}
			if m.Round > 0 && slices.Equal(snap, prev[id]) && len(m.Entries) != 0 {
				t.Fatalf("node %d round %d: table unchanged, yet %d lines sent", id, m.Round, len(m.Entries))
			}
			if len(m.Entries) == 0 {
				empty++
			}
			sent[id] += len(m.Entries)
			prev[id] = snap
		}, nil)
	}
	start := make([]int, topo.Len())
	for id, n := range nodes {
		start[id] = n.Table().Len()
		n.Start()
	}
	msgs := 0
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		nodes[m.to].HandleTable(m.from, m.m)
		msgs++
	}
	if want := rounds * 2 * topo.NumEdges(); msgs != want {
		t.Fatalf("%d table messages, want one per neighbor and round: %d", msgs, want)
	}
	if empty == 0 {
		t.Fatal("no round went without changes: the topology does not test the empty delta")
	}
	oracle := CentralTables(topo, rounds)
	for id, n := range nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish", id)
		}
		if sent[id] != start[id]+changed[id] {
			t.Fatalf("node %d sent %d lines, want its %d start lines plus %d changed", id, sent[id], start[id], changed[id])
		}
		if !slices.Equal(routesOf(n.Table()), routesOf(oracle[id])) {
			t.Fatalf("node %d's table differs from the full-table flow", id)
		}
	}
}
