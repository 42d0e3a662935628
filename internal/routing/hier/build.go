package hier

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Table is one site's routing state under the hierarchy: the exact table of
// its own region, built by the flat protocol over intra-region links. A
// site of another region has no route in it.
type Table = routing.Table

// Build runs the hierarchical bootstrap over a private discrete-event
// network and returns every site's table plus the communication statistics
// of the construction, region-crossing traversals counted as a hierarchical
// cluster counts them — the hierarchical counterpart of routing.Build, used
// by tests and offline tooling. The live protocol path (internal/core)
// drives the same routing.Node state machines over the cluster's own
// transport instead.
func Build(topo *graph.Graph) (map[graph.NodeID]*Table, *Layout, *simnet.Stats, error) {
	lay, err := NewLayout(topo)
	if err != nil {
		return nil, nil, nil, err
	}
	engine := sim.New()
	tr := simnet.NewDES(engine, topo)
	tr.Stats().SetBoundary(func(from, to graph.NodeID) bool { return !lay.SameRegion(from, to) })
	nodes := make([]*routing.Node, topo.Len())
	tables := make(map[graph.NodeID]*Table, topo.Len())
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		id := id
		nodes[id] = routing.NewNode(id, lay.IntraLinks(id, topo.Neighbors(id)), lay.Rounds[lay.Region(id)],
			func(to graph.NodeID, p simnet.Payload) {
				if err := tr.Send(id, to, p); err != nil {
					panic(err) // the bootstrap only sends to direct neighbors
				}
			},
			func(t *Table) { tables[id] = t })
		tr.Attach(id, func(from graph.NodeID, p simnet.Payload) {
			msg, ok := p.(routing.TableMsg)
			if !ok {
				panic(fmt.Sprintf("hier: unexpected payload %q", p.Kind()))
			}
			nodes[id].HandleTable(from, msg)
		})
	}
	for _, n := range nodes {
		n.Start()
	}
	if err := engine.Run(); err != nil {
		return nil, nil, nil, fmt.Errorf("hier: bootstrap did not converge: %w", err)
	}
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		if tables[id] == nil {
			return nil, nil, nil, fmt.Errorf("hier: site %d drained without finishing its region's %d rounds",
				id, lay.Rounds[lay.Region(id)])
		}
	}
	return tables, lay, tr.Stats(), nil
}
