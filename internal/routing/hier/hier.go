// Package hier partitions a wide network into regions so that routing
// state and protocol traffic stay sub-linear in the network size:
//
//   - the topology is partitioned into ~√n connected regions
//     (graph.Partition), and each region deterministically elects the
//     member with the smallest intra-region hop eccentricity as its
//     landmark (ties to the lowest site ID) — the region's center, drawn by
//     rtds-dot; the election's search also yields the region's diameter;
//   - every site runs the flat interrupted distance-vector protocol of
//     internal/routing over its intra-region links only, for as many rounds
//     as the region's diameter needs, producing an exact table of its
//     region (O(√n) entries).
//
// That table is the site's whole routing state (Table). A site in another
// region has no route in it, so nothing a site sends — bootstrap, protocol
// or membership traffic — ever crosses a region boundary, and every
// distance a table reports is the delay of the path it routes along.
//
// The bootstrap exchanges O(regionEdges·regionDiam) table messages of
// O(√n) entries each, instead of flooding O(n)-entry tables network-wide.
package hier

import (
	"fmt"

	"repro/internal/graph"
)

// Layout is the deterministic region structure derived from a topology: a
// pure function of the graph, shared by every site (the same way every
// site already knows the topology's delay ranges and its own
// neighbor list). It carries no per-site routing state.
type Layout struct {
	// Regions is the number of regions (~√n).
	Regions int
	// Assign maps every site to its region.
	Assign []int
	// Members lists each region's sites in ascending ID order.
	Members [][]graph.NodeID
	// Landmarks names each region's elected landmark: its center, drawn
	// by rtds-dot; no routing state refers to it.
	Landmarks []graph.NodeID
	// Rounds is the per-region intra-region bootstrap round count:
	// routing.RoundsForRadius of the region's hop diameter, the same
	// interruption idiom as the flat protocol.
	Rounds []int
}

// RegionsFor returns the region count used for an n-site network: ⌈√n⌉.
func RegionsFor(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// NewLayout partitions the topology into ⌈√n⌉ regions and elects the
// landmarks. The topology must be connected (graph.Partition then yields
// internally connected regions, which the intra-region bootstrap requires).
func NewLayout(topo *graph.Graph) (*Layout, error) {
	n := topo.Len()
	if n == 0 {
		return nil, fmt.Errorf("hier: empty topology")
	}
	if !topo.Connected() {
		return nil, fmt.Errorf("hier: topology is not connected")
	}
	nregions := RegionsFor(n)
	lay := &Layout{
		Regions:   nregions,
		Assign:    topo.Partition(nregions),
		Members:   make([][]graph.NodeID, nregions),
		Landmarks: make([]graph.NodeID, nregions),
		Rounds:    make([]int, nregions),
	}
	for v, r := range lay.Assign {
		lay.Members[r] = append(lay.Members[r], graph.NodeID(v))
	}
	bfs := newRegionBFS(n)
	for r := 0; r < nregions; r++ {
		if len(lay.Members[r]) == 0 {
			return nil, fmt.Errorf("hier: region %d is empty", r)
		}
		landmark, diam, err := bfs.electLandmark(topo, lay.Assign, lay.Members[r])
		if err != nil {
			return nil, fmt.Errorf("hier: region %d: %w", r, err)
		}
		lay.Landmarks[r] = landmark
		lay.Rounds[r] = roundsForDiameter(diam)
	}
	return lay, nil
}

// roundsForDiameter converts a region's hop diameter into intra-region
// bootstrap rounds, mirroring routing.RoundsForRadius: 2·diam−1 rounds
// discover every intra-region path of at most 2·diam edges — the same
// "stop after 2h phases" interruption the flat protocol applies globally.
func roundsForDiameter(diam int) int {
	if diam < 1 {
		return 0
	}
	return 2*diam - 1
}

// regionBFS is NewLayout's breadth-first search scratch, shared by every
// eccentricity search of one layout: a dense hop-distance slice (-1 =
// unseen) that each search restores by walking its own queue, and the queue.
type regionBFS struct {
	dist  []int
	queue []graph.NodeID
}

func newRegionBFS(n int) *regionBFS {
	b := &regionBFS{dist: make([]int, n)}
	for i := range b.dist {
		b.dist[i] = -1
	}
	return b
}

// electLandmark returns the region member with the smallest hop
// eccentricity within the region's induced subgraph (ties to the lowest
// ID, which the ascending member order provides), plus the region's hop
// diameter. Errors if the region is not internally connected.
func (b *regionBFS) electLandmark(topo *graph.Graph, assign []int, members []graph.NodeID) (graph.NodeID, int, error) {
	best, bestEcc, diam := graph.NodeID(-1), -1, 0
	for _, m := range members {
		ecc, err := b.eccentricity(topo, assign, m, len(members))
		if err != nil {
			return -1, 0, err
		}
		if best < 0 || ecc < bestEcc {
			best, bestEcc = m, ecc
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return best, diam, nil
}

// eccentricity BFSes from src over intra-region links only and returns the
// maximum hop distance to any region member. Errors if some member is
// unreachable inside the region.
func (b *regionBFS) eccentricity(topo *graph.Graph, assign []int, src graph.NodeID, members int) (int, error) {
	region := assign[src]
	b.queue = append(b.queue[:0], src)
	b.dist[src] = 0
	ecc := 0
	for i := 0; i < len(b.queue); i++ {
		u := b.queue[i]
		for _, e := range topo.Neighbors(u) {
			if assign[e.To] != region || b.dist[e.To] >= 0 {
				continue
			}
			b.dist[e.To] = b.dist[u] + 1
			ecc = max(ecc, b.dist[e.To])
			b.queue = append(b.queue, e.To)
		}
	}
	reached := len(b.queue)
	for _, v := range b.queue {
		b.dist[v] = -1
	}
	if reached != members {
		return 0, fmt.Errorf("region of site %d is not internally connected (%d of %d members reachable)",
			src, reached, members)
	}
	return ecc, nil
}

// MaxRounds reports the largest per-region bootstrap round count: R rounds
// discover paths of at most R+1 edges, so no route is longer.
func (l *Layout) MaxRounds() int {
	max := 0
	for _, r := range l.Rounds {
		if r > max {
			max = r
		}
	}
	return max
}

// Region reports the region of a site.
func (l *Layout) Region(site graph.NodeID) int { return l.Assign[site] }

// SameRegion reports whether two sites share a region.
func (l *Layout) SameRegion(a, b graph.NodeID) bool { return l.Assign[a] == l.Assign[b] }

// IntraLinks returns the links of site's adjacency that stay inside its
// region — the only links its bootstrap, heartbeats and repair floods use.
func (l *Layout) IntraLinks(site graph.NodeID, links []graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, e := range links {
		if l.SameRegion(site, e.To) {
			out = append(out, e)
		}
	}
	return out
}
