package routing

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Build runs the full distributed PCS construction over a private
// discrete-event network and returns every site's routing table plus the
// communication statistics of the construction. rounds is typically
// RoundsForRadius(h).
func Build(topo *graph.Graph, rounds int) (map[graph.NodeID]*Table, *simnet.Stats, error) {
	engine := sim.New()
	tr := simnet.NewDES(engine, topo)
	nodes := make(map[graph.NodeID]*Node, topo.Len())
	tables := make(map[graph.NodeID]*Table, topo.Len())
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		id := id
		nodes[id] = NewNode(id, topo.Neighbors(id), rounds,
			func(to graph.NodeID, p simnet.Payload) {
				if err := tr.Send(id, to, p); err != nil {
					panic(err) // routing only sends to direct neighbors
				}
			},
			func(t *Table) { tables[id] = t },
		)
		tr.Attach(id, func(from graph.NodeID, p simnet.Payload) {
			msg, ok := p.(TableMsg)
			if !ok {
				panic(fmt.Sprintf("routing: unexpected payload %q", p.Kind()))
			}
			nodes[id].HandleTable(from, msg)
		})
	}
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		nodes[id].Start()
	}
	if err := engine.Run(); err != nil {
		return nil, nil, fmt.Errorf("routing: construction did not converge: %w", err)
	}
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		if tables[id] == nil {
			return nil, nil, fmt.Errorf("routing: node %d did not finish after %d rounds", id, rounds)
		}
	}
	return tables, tr.Stats(), nil
}

// CentralTables is the centralized oracle: it computes, without any message
// exchange, exactly the tables the distributed protocol produces at every
// node after the given number of rounds — minimum delay over paths of at
// most rounds+1 edges, minimum hop counts capped the same way, and the
// deterministic next-hop tie-breaking of Table.Merge. The whole synchronous
// information flow is simulated once; callers that need every site's table
// (the bidding baseline) must use this instead of calling CentralTable per
// site, which would redo the n-node simulation n times.
func CentralTables(topo *graph.Graph, rounds int) []*Table {
	return RebuildAlive(topo, rounds, func(graph.NodeID) bool { return true })
}

// RebuildAlive recomputes the routing tables of the surviving sites after a
// set of sites has been declared dead: the CentralTables synchronous flow
// (CentralTables delegates here with an all-alive predicate), run over the
// alive subgraph — dead nodes contribute no table and dead links carry no
// snapshot. It stands in for the §7 re-flood a deployment would trigger on
// failure detection, so surviving sites route around dead ones where an
// alive path of at most rounds+1 edges exists; destinations with no such
// path simply drop out of the tables and the protocol layer degrades to
// dropping traffic addressed to them. Dead sites' slots in the returned
// slice are nil.
func RebuildAlive(topo *graph.Graph, rounds int, alive func(graph.NodeID) bool) []*Table {
	n := topo.Len()
	state := make([]*Table, n)
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if !alive(id) {
			continue
		}
		var nbrs []graph.Edge
		for _, e := range topo.Neighbors(id) {
			if alive(e.To) {
				nbrs = append(nbrs, e)
			}
		}
		state[v] = NewTable(id, nbrs)
	}
	for r := 0; r < rounds; r++ {
		snaps := make([][]WireRoute, n)
		for v := 0; v < n; v++ {
			if state[v] != nil {
				snaps[v] = state[v].Snapshot()
			}
		}
		changed := false
		for v := 0; v < n; v++ {
			if state[v] == nil {
				continue
			}
			for _, e := range topo.Neighbors(graph.NodeID(v)) {
				if state[e.To] == nil {
					continue
				}
				if state[v].Merge(e.To, e.Delay, snaps[e.To]) {
					changed = true
				}
			}
		}
		// Fixed point: further rounds cannot alter any table, so stopping
		// early returns exactly what the remaining rounds would.
		if !changed {
			break
		}
	}
	return state
}

// CentralTable computes one node's table (see CentralTables). Callers that
// need many nodes' tables should call CentralTables once instead.
func CentralTable(topo *graph.Graph, k graph.NodeID, rounds int) *Table {
	return CentralTables(topo, rounds)[k]
}

// OracleSphere computes the PCS of k (radius h) straight from the topology:
// all nodes whose BFS hop distance is at most h. Used by tests to validate
// Table.Sphere.
func OracleSphere(topo *graph.Graph, k graph.NodeID, h int) []graph.NodeID {
	hops := topo.HopDistances(k)
	var out []graph.NodeID
	for v, d := range hops {
		if d >= 0 && d <= h {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
