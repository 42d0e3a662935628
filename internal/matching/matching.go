// Package matching implements maximum bipartite matching, used by the
// Trial-Mapping validation step (paper §10): sites of the ACS on one side,
// logical processors of the mapping on the other, an edge when the site
// reported it can endorse the logical processor. A matching of size |U|
// yields the permutation of sites that executes the job.
//
// The implementation is Hopcroft–Karp, O(E·sqrt(V)); an exhaustive
// augmenting-path oracle is used by the tests.
package matching

import "fmt"

// Bipartite is a bipartite graph between `left` nodes 0..L-1 and `right`
// nodes 0..R-1.
type Bipartite struct {
	left, right int
	adj         [][]int // adj[l] = sorted right-neighbours of l
}

// NewBipartite creates an empty bipartite graph.
func NewBipartite(left, right int) *Bipartite {
	if left < 0 || right < 0 {
		panic("matching: negative side size")
	}
	return &Bipartite{left: left, right: right, adj: make([][]int, left)}
}

// AddEdge links left node l to right node r. Duplicate edges are ignored.
func (b *Bipartite) AddEdge(l, r int) {
	if l < 0 || l >= b.left || r < 0 || r >= b.right {
		panic(fmt.Sprintf("matching: edge (%d,%d) out of range (%d,%d)", l, r, b.left, b.right))
	}
	for _, x := range b.adj[l] {
		if x == r {
			return
		}
	}
	b.adj[l] = append(b.adj[l], r)
}

// Result is a maximum matching. MatchL[l] is the right node matched to l, or
// -1; MatchR is the inverse.
type Result struct {
	Size   int
	MatchL []int
	MatchR []int
}

const infDist = int(^uint(0) >> 1)

// MaximumMatching computes a maximum matching with Hopcroft–Karp.
func (b *Bipartite) MaximumMatching() Result {
	matchL := make([]int, b.left)
	matchR := make([]int, b.right)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	dist := make([]int, b.left)
	queue := make([]int, 0, b.left)

	bfs := func() bool {
		queue = queue[:0]
		for l := 0; l < b.left; l++ {
			if matchL[l] == -1 {
				dist[l] = 0
				queue = append(queue, l)
			} else {
				dist[l] = infDist
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, r := range b.adj[l] {
				nl := matchR[r]
				if nl == -1 {
					found = true
				} else if dist[nl] == infDist {
					dist[nl] = dist[l] + 1
					queue = append(queue, nl)
				}
			}
		}
		return found
	}

	var dfs func(l int) bool
	dfs = func(l int) bool {
		for _, r := range b.adj[l] {
			nl := matchR[r]
			if nl == -1 || (dist[nl] == dist[l]+1 && dfs(nl)) {
				matchL[l] = r
				matchR[r] = l
				return true
			}
		}
		dist[l] = infDist
		return false
	}

	size := 0
	for bfs() {
		for l := 0; l < b.left; l++ {
			if matchL[l] == -1 && dfs(l) {
				size++
			}
		}
	}
	return Result{Size: size, MatchL: matchL, MatchR: matchR}
}

// PerfectOnRight reports whether the matching saturates every right node —
// the paper's acceptance condition with right = logical processors |U|.
func (r Result) PerfectOnRight() bool {
	for _, l := range r.MatchR {
		if l == -1 {
			return false
		}
	}
	return true
}

// RightAssignment returns, for each right node, its matched left node.
// It panics if the matching does not saturate the right side; callers must
// check PerfectOnRight first.
func (r Result) RightAssignment() []int {
	out := make([]int, len(r.MatchR))
	for rt, l := range r.MatchR {
		if l == -1 {
			panic("matching: RightAssignment on non-perfect matching")
		}
		out[rt] = l
	}
	return out
}
