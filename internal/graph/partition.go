package graph

import "math"

// Partition splits the nodes into nparts balanced, connected-ish regions for
// the parallel DES kernel: sites in one part share an event heap and an
// execution thread, so the partitioner's job is to keep chatty neighbors
// together (few cut edges ⇒ few barrier-crossing messages) while keeping the
// parts balanced (the slowest part paces every synchronization window).
//
// The algorithm is deterministic — a pure function of the graph and nparts,
// never of map order or randomness — because the kernel's event-ordering key
// includes the partition-independent origin site, but the *assignment* feeds
// the bench harness and must reproduce across runs:
//
//  1. seed one node per part by farthest-point sampling on hop distance
//     (ties to the lowest node ID);
//  2. grow all parts with a round-robin multi-source BFS under a capacity of
//     ceil(n/nparts), so parts are contiguous regions of comparable size;
//  3. refine: a few sweeps move boundary nodes to the neighboring part that
//     hosts most of their edges when that strictly reduces the number of cut
//     edges without emptying or overfilling a part;
//  4. repair: on a connected graph every part is made internally connected —
//     stray fragments (possible after the capacity-wall fallback of step 2 or
//     a refinement move) are merged into the neighboring part they touch the
//     most, then oversize parts shed connectivity-safe boundary nodes back
//     toward the capacity.
//
// Connectivity of every part is what the hierarchical routing layer
// (internal/routing/hier) builds on: a region's intra-region distance-vector
// bootstrap can only converge over paths that stay inside the region.
//
// The returned slice maps every node to its part in [0, nparts). nparts is
// clamped to n when larger (every node its own part) and must be >= 1.
func (g *Graph) Partition(nparts int) []int {
	if nparts < 1 {
		panic("graph: Partition needs nparts >= 1")
	}
	n := g.n
	if nparts > n {
		nparts = n
	}
	part := make([]int, n)
	if nparts <= 1 {
		return part
	}

	seeds := g.partitionSeeds(nparts)
	capPer := (n + nparts - 1) / nparts

	// Round-robin multi-source BFS growth. Each part keeps a FIFO frontier;
	// on its turn it claims the first unclaimed node of its frontier. A part
	// whose frontier runs dry while unclaimed nodes remain (disconnected
	// graphs, capacity walls) restarts from the lowest unclaimed node, so
	// every node is always assigned.
	for i := range part {
		part[i] = -1
	}
	frontiers := make([][]NodeID, nparts)
	size := make([]int, nparts)
	for p, s := range seeds {
		part[s] = p
		size[p] = 1
		frontiers[p] = append(frontiers[p], s)
	}
	assigned := nparts
	for assigned < n {
		progress := false
		for p := 0; p < nparts && assigned < n; p++ {
			if size[p] >= capPer {
				continue
			}
			claimed := false
			for len(frontiers[p]) > 0 && !claimed {
				// Peek at the head: it stays there for the next turn while it
				// has unclaimed neighbors, and is popped once it has none.
				u := frontiers[p][0]
				for _, e := range g.adj[u] {
					if part[e.To] >= 0 {
						continue
					}
					part[e.To] = p
					size[p]++
					assigned++
					frontiers[p] = append(frontiers[p], e.To)
					claimed = true
					progress = true
					break
				}
				if !claimed {
					frontiers[p] = frontiers[p][1:]
				}
			}
		}
		if !progress {
			// Every frontier is dry or full. Keep parts contiguous: hand the
			// lowest unclaimed node that touches an assigned one to the
			// smallest adjacent part — preferring parts under capacity, but
			// overflowing an adjacent part rather than teleporting the node
			// into a disconnected region (shedOversize walks the overflow
			// back later). Only on a disconnected graph, where an unclaimed
			// node may touch nothing assigned, fall back to the smallest part
			// outright.
			u, best := NodeID(-1), -1
			for v := range part {
				if part[v] >= 0 {
					continue
				}
				underCap, any := -1, -1
				for _, e := range g.adj[NodeID(v)] {
					p := part[e.To]
					if p < 0 {
						continue
					}
					if any < 0 || size[p] < size[any] {
						any = p
					}
					if size[p] < capPer && (underCap < 0 || size[p] < size[underCap]) {
						underCap = p
					}
				}
				if underCap >= 0 {
					u, best = NodeID(v), underCap
					break
				}
				if any >= 0 && u < 0 {
					u, best = NodeID(v), any
					// Keep scanning: a later node may have an under-cap home.
				}
			}
			if u < 0 {
				for v := range part {
					if part[v] < 0 {
						u = NodeID(v)
						break
					}
				}
				best = 0
				for p := 1; p < nparts; p++ {
					if size[p] < size[best] {
						best = p
					}
				}
			}
			part[u] = best
			size[best]++
			assigned++
			frontiers[best] = append(frontiers[best], u)
		}
	}

	g.refinePartition(part, size, nparts, capPer)
	g.repairPartition(part, size, nparts, capPer)
	return part
}

// repairPartition makes every part internally connected (on a connected
// graph) and then walks oversize parts back toward the capacity without
// breaking what it just established.
//
// Fragment merging: a part's connected components are found in ascending
// node order; the largest component (ties to the one holding the lowest
// node) stays, every other fragment moves wholesale to the neighboring part
// it shares the most edges with (ties to the lowest part index). A moved
// fragment attaches to an existing component of its target, so the total
// number of (part, component) fragments strictly decreases and the loop
// terminates. Merges may overshoot capPer; the shed pass below recovers the
// bound where a connectivity-safe move exists, so callers get balance on
// real topologies and connectivity always.
func (g *Graph) repairPartition(part, size []int, nparts, capPer int) {
	if nparts <= 1 {
		return
	}
	degTo := make([]int, nparts)
	for {
		moved := false
		for p := 0; p < nparts; p++ {
			comps := g.partComponents(part, p)
			if len(comps) <= 1 {
				continue
			}
			keep := 0
			for i, c := range comps {
				if len(c) > len(comps[keep]) {
					keep = i
				}
			}
			for i, c := range comps {
				if i == keep {
					continue
				}
				for q := range degTo {
					degTo[q] = 0
				}
				for _, v := range c {
					for _, e := range g.adj[v] {
						if q := part[e.To]; q != p {
							degTo[q]++
						}
					}
				}
				best, bestDeg := -1, 0
				for q := 0; q < nparts; q++ {
					if q != p && degTo[q] > bestDeg {
						best, bestDeg = q, degTo[q]
					}
				}
				if best < 0 {
					continue // the fragment is a whole graph component; leave it
				}
				for _, v := range c {
					part[v] = best
				}
				size[p] -= len(c)
				size[best] += len(c)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	g.shedOversize(part, size, nparts, capPer)
}

// shedOversize moves boundary nodes out of parts that exceed capPer into
// adjacent parts with room, but only when the source part stays connected
// without the node. Deterministic sweeps in ascending node order; stops when
// no oversize part can shed anything.
func (g *Graph) shedOversize(part, size []int, nparts, capPer int) {
	degTo := make([]int, nparts)
	for {
		moved := false
		for v := 0; v < g.n; v++ {
			home := part[v]
			if size[home] <= capPer || size[home] <= 1 {
				continue
			}
			for p := range degTo {
				degTo[p] = 0
			}
			for _, e := range g.adj[v] {
				degTo[part[e.To]]++
			}
			best, bestDeg := -1, 0
			for p := 0; p < nparts; p++ {
				if p != home && size[p] < capPer && degTo[p] > bestDeg {
					best, bestDeg = p, degTo[p]
				}
			}
			if best < 0 || !g.connectedWithout(part, home, NodeID(v)) {
				continue
			}
			part[v] = best
			size[home]--
			size[best]++
			moved = true
		}
		if !moved {
			return
		}
	}
}

// partComponents lists the connected components of part p's induced
// subgraph, discovered in ascending node order (each component's first node
// is its lowest).
func (g *Graph) partComponents(part []int, p int) [][]NodeID {
	var comps [][]NodeID
	seen := make([]bool, g.n)
	for v := 0; v < g.n; v++ {
		if part[v] != p || seen[v] {
			continue
		}
		comp := []NodeID{NodeID(v)}
		seen[v] = true
		for i := 0; i < len(comp); i++ {
			for _, e := range g.adj[comp[i]] {
				if part[e.To] == p && !seen[e.To] {
					seen[e.To] = true
					comp = append(comp, e.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// connectedWithout reports whether part p stays connected when node skip is
// removed from it.
func (g *Graph) connectedWithout(part []int, p int, skip NodeID) bool {
	start := NodeID(-1)
	total := 0
	for v := 0; v < g.n; v++ {
		if part[v] == p && NodeID(v) != skip {
			if start < 0 {
				start = NodeID(v)
			}
			total++
		}
	}
	if total <= 1 {
		return true
	}
	seen := make(map[NodeID]bool, total)
	seen[start] = true
	stack := []NodeID{start}
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if part[e.To] == p && e.To != skip && !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == total
}

// partitionSeeds picks nparts spread-out seed nodes by farthest-point
// sampling on hop distance: start from node 0, then repeatedly take the node
// maximizing its minimum hop distance to the chosen seeds (unreachable nodes
// count as farthest, so disconnected components get their own seeds first).
func (g *Graph) partitionSeeds(nparts int) []NodeID {
	seeds := []NodeID{0}
	minDist := g.HopDistances(0)
	var queue []NodeID
	for len(seeds) < nparts {
		best, bestDist := NodeID(-1), -1
		for v := 0; v < g.n; v++ {
			d := minDist[v]
			if d < 0 {
				d = g.n // unreachable: farther than any real path
			}
			if d > bestDist {
				best, bestDist = NodeID(v), d
			}
		}
		if bestDist == 0 {
			// Fewer distinct positions than parts; fall back to low IDs not
			// yet chosen (can only happen on degenerate tiny graphs).
			for v := 0; v < g.n; v++ {
				taken := false
				for _, s := range seeds {
					if s == NodeID(v) {
						taken = true
						break
					}
				}
				if !taken {
					best = NodeID(v)
					break
				}
			}
		}
		seeds = append(seeds, best)
		// Lower minDist to the hop distance from the new seed wherever that
		// is nearer: a BFS that expands only the nodes it brings nearer. That
		// is exact — a node the seed does not bring nearer cannot lie on a
		// shortest path to one it does — and visits only the seed's own
		// cell instead of the whole graph.
		queue = append(queue[:0], best)
		minDist[best] = 0
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, e := range g.adj[u] {
				if d := minDist[e.To]; d < 0 || minDist[u]+1 < d {
					minDist[e.To] = minDist[u] + 1
					queue = append(queue, e.To)
				}
			}
		}
	}
	return seeds
}

// refinePartition runs a few deterministic boundary sweeps: in ascending
// node order, move a node to the adjacent part hosting the most of its edges
// when that strictly reduces cut edges, respects the capacity and does not
// empty the source part. Sweeps stop early once a full pass moves nothing.
func (g *Graph) refinePartition(part, size []int, nparts, capPer int) {
	degTo := make([]int, nparts)
	for sweep := 0; sweep < 4; sweep++ {
		moved := false
		for v := 0; v < g.n; v++ {
			home := part[v]
			if size[home] <= 1 {
				continue
			}
			for p := range degTo {
				degTo[p] = 0
			}
			for _, e := range g.adj[v] {
				degTo[part[e.To]]++
			}
			best, bestDeg := home, degTo[home]
			for p := 0; p < nparts; p++ {
				if p == home || size[p] >= capPer {
					continue
				}
				if degTo[p] > bestDeg {
					best, bestDeg = p, degTo[p]
				}
			}
			if best != home && g.connectedWithout(part, home, NodeID(v)) {
				part[v] = best
				size[home]--
				size[best]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// MinCrossDelay reports the minimum delay over edges whose endpoints lie in
// different parts of the given assignment — the conservative lookahead of
// the parallel kernel: an event executing in one part cannot affect another
// part sooner than this. Returns +Inf when no edge crosses parts (nparts=1,
// or parts that coincide with connected components).
func (g *Graph) MinCrossDelay(part []int) float64 {
	min := math.Inf(1)
	for u := NodeID(0); int(u) < g.n; u++ {
		for _, e := range g.adj[u] {
			if part[u] != part[e.To] && e.Delay < min {
				min = e.Delay
			}
		}
	}
	return min
}

// CutEdges counts the undirected edges crossing parts under the assignment
// (each cut edge counted once). Exported for the partitioner's tests and the
// bench harness's partition diagnostics.
func (g *Graph) CutEdges(part []int) int {
	cut := 0
	for u := NodeID(0); int(u) < g.n; u++ {
		for _, e := range g.adj[u] {
			if u < e.To && part[u] != part[e.To] {
				cut++
			}
		}
	}
	return cut
}
