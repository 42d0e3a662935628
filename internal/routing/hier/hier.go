// Package hier implements two-level region/landmark routing on top of the
// flat §7 distance-vector protocol of internal/routing, so per-site routing
// state stays sub-linear in the network size:
//
//   - the topology is partitioned into ~√n connected regions
//     (graph.Partition), and each region deterministically elects the
//     member with the smallest intra-region hop eccentricity as its
//     landmark (ties to the lowest site ID);
//   - every site runs the interrupted distance-vector bootstrap over its
//     intra-region links only, producing an exact table of its region
//     (O(√n) entries);
//   - every landmark floods a small advertisement through the whole
//     network; each site keeps, per region, its best distance/next-hop
//     toward that region's landmark (O(√n) entries of constant size) and
//     re-forwards only improvements, so the flood quiesces.
//
// Forwarding: a destination in the local region follows the exact intra
// table; any other destination is forwarded along the landmark gradient of
// its region until the message enters that region, where the intra table
// takes over. Intra-region paths never leave the region (the bootstrap only
// saw intra-region links), so region-local protocol traffic crosses zero
// region boundaries.
//
// Per-site state is therefore O(√n) entries — versus O(n) for the flat
// table — and the bootstrap exchanges O(regionEdges·regionDiam) table
// messages plus O(E·√n) constant-size advertisements instead of flooding
// O(n)-entry tables network-wide.
//
// The landmark vector is a slice indexed by region with a count of known
// lines (a line whose Site is negative marks a region no advertisement has
// reached yet); state sizes count known lines only. The advertisement
// flood is most of a wide network's bootstrap messages, so a dropped ad
// costs no allocation and an improving one exactly one: its payload, boxed
// once for every neighbor.
package hier

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Layout is the deterministic region/landmark structure derived from a
// topology: a pure function of the graph, shared by every site (the same
// way every site already knows the topology's delay ranges and its own
// neighbor list). It carries no per-site routing state.
type Layout struct {
	// Regions is the number of regions (~√n).
	Regions int
	// Assign maps every site to its region.
	Assign []int
	// Members lists each region's sites in ascending ID order.
	Members [][]graph.NodeID
	// Landmarks names each region's elected landmark.
	Landmarks []graph.NodeID
	// Rounds is the per-region intra-region bootstrap round count:
	// routing.RoundsForRadius of the region's hop diameter, the same
	// interruption idiom as the flat protocol.
	Rounds []int
	// Adjacent lists, per region, the regions it shares a cut edge with,
	// in ascending order.
	Adjacent [][]int
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
		Adjacent:  make([][]int, nregions),
	}
	for v, r := range lay.Assign {
		lay.Members[r] = append(lay.Members[r], graph.NodeID(v))
	}
	for v := 0; v < n; v++ {
		for _, e := range topo.Neighbors(graph.NodeID(v)) {
			if a, b := lay.Assign[v], lay.Assign[e.To]; a != b {
				lay.Adjacent[a] = append(lay.Adjacent[a], b)
			}
		}
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
		slices.Sort(lay.Adjacent[r])
		lay.Adjacent[r] = slices.Compact(lay.Adjacent[r])
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

// MaxRounds reports the largest per-region bootstrap round count — the
// bound every region's intra path length stays under.
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
