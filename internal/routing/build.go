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
	return BuildOver(topo, topo.Neighbors, func(graph.NodeID) int { return rounds }, nil)
}

// BuildOver is the construction Build and hier.Build share: every site runs
// a Node over links(id) for rounds(id) rounds on a private discrete-event
// network over topo. crosses, when non-nil, marks the links whose traversals
// the returned statistics count as region-crossing. The live protocol path
// (internal/core) drives the same Node state machines over the cluster's own
// transport instead.
func BuildOver(topo *graph.Graph, links func(graph.NodeID) []graph.Edge, rounds func(graph.NodeID) int,
	crosses func(from, to graph.NodeID) bool) (map[graph.NodeID]*Table, *simnet.Stats, error) {
	engine := sim.New()
	tr := simnet.NewDES(engine, topo)
	if crosses != nil {
		tr.Stats().SetBoundary(crosses)
	}
	nodes := make([]*Node, topo.Len())
	tables := make(map[graph.NodeID]*Table, topo.Len())
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		id := id
		nodes[id] = NewNode(id, links(id), rounds(id),
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
	for _, n := range nodes {
		n.Start()
	}
	if err := engine.Run(); err != nil {
		return nil, nil, fmt.Errorf("routing: construction did not converge: %w", err)
	}
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		if tables[id] == nil {
			return nil, nil, fmt.Errorf("routing: node %d did not finish after %d rounds", id, rounds(id))
		}
	}
	return tables, tr.Stats(), nil
}

// CentralTables is the centralized oracle: it computes, without any message
// exchange, exactly the tables the distributed protocol produces at every
// node after the given number of rounds — minimum delay over paths of at
// most rounds+1 edges, minimum hop counts capped the same way, and the
// deterministic next-hop tie-breaking of Table.Merge. The whole synchronous
// information flow is simulated once, so a caller that needs one site's
// table indexes the result.
func CentralTables(topo *graph.Graph, rounds int) []*Table {
	n := topo.Len()
	state := make([]*Table, n)
	for v := 0; v < n; v++ {
		state[v] = NewTable(graph.NodeID(v), topo.Neighbors(graph.NodeID(v)))
	}
	snaps := make([][]WireRoute, n)
	for r := 0; r < rounds; r++ {
		for v := 0; v < n; v++ {
			snaps[v] = state[v].Snapshot()
		}
		changed := false
		for v := 0; v < n; v++ {
			for _, e := range topo.Neighbors(graph.NodeID(v)) {
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
