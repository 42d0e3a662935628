// Package graph models the communication network: an arbitrary connected
// undirected graph whose vertices are sites and whose edges are bidirectional
// communication links weighted by delay. Edge weights need not satisfy the
// triangle inequality (paper §2).
//
// The package also provides centralized shortest-path computations
// (Dijkstra, BFS hop counts, the delay diameter) that partitioning, the
// baselines and the schedule verifier use.
package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// NodeID identifies a site. Sites are numbered 0..N-1.
type NodeID int

// Edge is one endpoint's view of an undirected link.
type Edge struct {
	To    NodeID
	Delay float64 // communication delay; must be > 0
}

// Graph is an undirected weighted graph. Construct with New and AddEdge; the
// adjacency lists are kept sorted by neighbor ID so iteration is
// deterministic.
type Graph struct {
	n   int
	adj [][]Edge
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// Len reports the number of nodes.
func (g *Graph) Len() int { return g.n }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

func (g *Graph) check(id NodeID) {
	if id < 0 || int(id) >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", id, g.n))
	}
}

// AddEdge inserts an undirected link u—v with the given delay. Self-loops,
// duplicate edges and non-positive delays are rejected with an error.
func (g *Graph) AddEdge(u, v NodeID, delay float64) error {
	g.check(u)
	g.check(v)
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if delay <= 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("graph: invalid delay %v on %d—%d", delay, u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge %d—%d", u, v)
	}
	g.insert(u, Edge{To: v, Delay: delay})
	g.insert(v, Edge{To: u, Delay: delay})
	return nil
}

// MustAddEdge is AddEdge but panics on error; for tests and generators.
func (g *Graph) MustAddEdge(u, v NodeID, delay float64) {
	if err := g.AddEdge(u, v, delay); err != nil {
		panic(err)
	}
}

func (g *Graph) insert(u NodeID, e Edge) {
	a := g.adj[u]
	i, _ := SearchEdges(a, e.To)
	a = append(a, Edge{})
	copy(a[i+1:], a[i:])
	a[i] = e
	g.adj[u] = a
}

// SearchEdges binary-searches an adjacency list sorted by neighbor ID (the
// order Neighbors returns) for the link to v: its index and whether it is
// there, or the index it would be inserted at.
func SearchEdges(a []Edge, v NodeID) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m].To < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(a) && a[lo].To == v
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	_, ok := SearchEdges(g.adj[u], v)
	return ok
}

// EdgeDelay returns the delay of link u—v, or an error if absent.
func (g *Graph) EdgeDelay(u, v NodeID) (float64, error) {
	g.check(u)
	g.check(v)
	if i, ok := SearchEdges(g.adj[u], v); ok {
		return g.adj[u][i].Delay, nil
	}
	return 0, fmt.Errorf("graph: no edge %d—%d", u, v)
}

// Neighbors returns u's adjacency list sorted by neighbor ID. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []Edge {
	g.check(u)
	return g.adj[u]
}

// Connected reports whether the graph is connected (true for the empty and
// single-node graphs).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.n
}

// PathInfo is the result of a shortest-path query from a source.
type PathInfo struct {
	Dist float64 // total delay; +Inf if unreachable
	Hops int     // number of edges on the found path; -1 if unreachable
	Prev NodeID  // predecessor on the path; -1 at the source/unreachable
}

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

type dijkstraItem struct {
	node  NodeID
	dist  float64
	index int
}

type dijkstraHeap []*dijkstraItem

func (h dijkstraHeap) Len() int { return len(h) }
func (h dijkstraHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node // deterministic tie-break
}
func (h dijkstraHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *dijkstraHeap) Push(x any) {
	it := x.(*dijkstraItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *dijkstraHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest delay paths from src.
func (g *Graph) Dijkstra(src NodeID) []PathInfo {
	g.check(src)
	res := make([]PathInfo, g.n)
	for i := range res {
		res[i] = PathInfo{Dist: Inf, Hops: -1, Prev: -1}
	}
	res[src] = PathInfo{Dist: 0, Hops: 0, Prev: -1}
	items := make([]*dijkstraItem, g.n)
	h := make(dijkstraHeap, 0, g.n)
	items[src] = &dijkstraItem{node: src, dist: 0}
	heap.Push(&h, items[src])
	done := make([]bool, g.n)
	for h.Len() > 0 {
		it := heap.Pop(&h).(*dijkstraItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			nd := res[u].Dist + e.Delay
			if nd < res[e.To].Dist {
				res[e.To] = PathInfo{Dist: nd, Hops: res[u].Hops + 1, Prev: u}
				if items[e.To] == nil || done[e.To] {
					items[e.To] = &dijkstraItem{node: e.To, dist: nd}
					heap.Push(&h, items[e.To])
				} else {
					items[e.To].dist = nd
					heap.Fix(&h, items[e.To].index)
				}
			}
		}
	}
	return res
}

// HopDistances computes BFS hop counts from src, ignoring delays.
func (g *Graph) HopDistances(src NodeID) []int {
	g.check(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// DelayDiameter returns the maximum finite pairwise shortest-path delay.
// It is O(N * Dijkstra); intended for setup and tests, not hot paths.
func (g *Graph) DelayDiameter() float64 {
	var diam float64
	for u := NodeID(0); int(u) < g.n; u++ {
		for _, pi := range g.Dijkstra(u) {
			if pi.Dist != Inf && pi.Dist > diam {
				diam = pi.Dist
			}
		}
	}
	return diam
}
