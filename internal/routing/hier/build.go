package hier

import (
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

// Table is one site's routing state under the hierarchy: the exact table of
// its own region, built by the flat protocol over intra-region links. A
// site of another region has no route in it.
type Table = routing.Table

// Build runs the hierarchical bootstrap — routing.BuildOver with each site's
// intra-region links and its region's round count — and returns every
// site's table plus the communication statistics of the construction,
// region-crossing traversals counted as a hierarchical cluster counts them.
func Build(topo *graph.Graph) (map[graph.NodeID]*Table, *Layout, *simnet.Stats, error) {
	lay, err := NewLayout(topo)
	if err != nil {
		return nil, nil, nil, err
	}
	tables, stats, err := routing.BuildOver(topo,
		func(id graph.NodeID) []graph.Edge { return lay.IntraLinks(id, topo.Neighbors(id)) },
		func(id graph.NodeID) int { return lay.Rounds[lay.Region(id)] },
		func(from, to graph.NodeID) bool { return !lay.SameRegion(from, to) })
	if err != nil {
		return nil, nil, nil, err
	}
	return tables, lay, stats, nil
}
