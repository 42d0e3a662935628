// Package lockorder reports lock-order cycles: pairs of mutex classes the
// program acquires in both orders, the classic recipe for an AB/BA
// deadlock between two goroutines.
//
// The analysis is whole-program. It builds the call graph of the scoped
// packages (every internal package outside the linter itself), composes
// each function's lock summary transitively, and
// records an ordered pair A -> B whenever some execution acquires class B
// while class A is held — directly in one body, or because a call made
// under A reaches a function that acquires B. A cycle among the ordered
// pairs is a potential deadlock and is reported at each acquisition (or
// call) site that contributes an edge to the cycle.
//
// Locks are abstracted to classes, not instances: every s.mu of one struct
// type is the same class, because a consistent acquisition ORDER is a
// property of the type. The abstraction has one deliberate blind spot:
// self-edges (A -> A, two instances of the same class locked together) are
// not reported, since the class graph cannot tell instance-ordered
// acquisition — the paper's protocol locks at most one instance of a class
// per goroutine, so the precision loss is free today.
//
// The same machinery derives the canonical lock hierarchy — the
// topological order of the acquisition graph — recorded as
// DocumentedHierarchy (doc.go) so the tool and the humans agree on it:
// TestDocumentedHierarchyMatchesDerived keeps the two in sync and prints
// the derived list when they part.
//
// A justified exception carries //lint:allow lockorder -- <why> on the
// acquisition (or call) line that completes the cycle.
package lockorder

import (
	"fmt"
	"go/token"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name:   "lockorder",
	Escape: "lockorder",
	Doc: "report mutex classes acquired in inconsistent order across the " +
		"whole program (potential AB/BA deadlock) and derive the canonical " +
		"lock hierarchy",
	Run: run,
}

// An orderEdge is one ordered acquisition pair with its first witness.
type orderEdge struct {
	from, to string
	// pos is the earliest site that acquires `to` while holding `from`.
	pos token.Pos
	// via describes the witness for the diagnostic: "" for a direct
	// acquisition, else the callee whose transitive acquires contribute.
	via string
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass.Fset, pass.Packages)
	edges := orderEdges(g)
	for _, e := range cycleEdges(edges) {
		cycle := e.from + " -> " + e.to
		detail := ""
		if e.via != "" {
			detail = fmt.Sprintf(" (via call to %s)", e.via)
		}
		pass.Reportf(e.pos,
			"acquiring %s while holding %s%s completes a lock-order cycle (%s also acquired in the reverse order) — potential deadlock; acquire in hierarchy order",
			e.to, e.from, detail, cycle)
	}
	return nil
}

// orderEdges builds the ordered-acquisition graph with one witness per
// edge (the earliest, for stable diagnostics).
func orderEdges(g *callgraph.Graph) []orderEdge {
	trans := g.TransitiveAcquires()
	index := make(map[[2]string]int)
	var edges []orderEdge
	add := func(from, to string, pos token.Pos, via string) {
		if from == to {
			return // class self-edge: see the package comment
		}
		key := [2]string{from, to}
		if i, ok := index[key]; ok {
			if pos < edges[i].pos {
				edges[i].pos, edges[i].via = pos, via
			}
			return
		}
		index[key] = len(edges)
		edges = append(edges, orderEdge{from: from, to: to, pos: pos, via: via})
	}
	for _, n := range g.Nodes {
		for _, a := range n.Acquires {
			for _, h := range a.Held {
				add(h, a.Class, a.Pos, "")
			}
		}
		for _, e := range n.Out {
			if e.Ctx != callgraph.Call || len(e.Held) == 0 {
				continue
			}
			for _, acquired := range trans[e.Callee] {
				for _, h := range e.Held {
					add(h, acquired, e.Pos, e.Callee.Name)
				}
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	return edges
}

// cycleEdges returns the edges that lie inside a strongly connected
// component of two or more classes — exactly the edges whose removal
// would restore a consistent hierarchy.
func cycleEdges(edges []orderEdge) []orderEdge {
	comp := sccs(edges)
	var bad []orderEdge
	for _, e := range edges {
		if comp[e.from] != 0 && comp[e.from] == comp[e.to] {
			bad = append(bad, e)
		}
	}
	return bad
}

// sccs runs Tarjan over the class graph and returns a component id per
// class — 0 for classes in singleton components without a self-loop (none
// exist: self-edges are dropped at construction), so a nonzero shared id
// means "on a cycle".
func sccs(edges []orderEdge) map[string]int {
	succ := make(map[string][]string)
	var classes []string
	seen := make(map[string]bool)
	note := func(c string) {
		if !seen[c] {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	for _, e := range edges {
		note(e.from)
		note(e.to)
		succ[e.from] = append(succ[e.from], e.to)
	}
	sort.Strings(classes)

	index := make(map[string]int, len(classes))
	low := make(map[string]int, len(classes))
	onStack := make(map[string]bool)
	comp := make(map[string]int, len(classes))
	var stack []string
	next, compID := 1, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				compID++
				for _, m := range members {
					comp[m] = compID
				}
			}
		}
	}
	for _, c := range classes {
		if index[c] == 0 {
			strongconnect(c)
		}
	}
	return comp
}

// Hierarchy computes the canonical lock hierarchy of the given packages:
// every lock class that participates in at least one ordered pair, in
// topological acquisition order (a lock earlier in the list is acquired
// before — never after — any lock later in it). Classes on a cycle are
// listed at the end under a "CYCLE:" marker; the lockorder analyzer
// reports those separately.
func Hierarchy(fset *token.FileSet, pkgs []*analysis.Package) []string {
	g := callgraph.Build(fset, pkgs)
	edges := orderEdges(g)
	comp := sccs(edges)

	indeg := make(map[string]int)
	succ := make(map[string][]string)
	var classes []string
	seen := make(map[string]bool)
	note := func(c string) {
		if !seen[c] {
			seen[c] = true
			classes = append(classes, c)
			indeg[c] = 0
		}
	}
	for _, e := range edges {
		// Leave cyclic classes out of the topological order entirely;
		// they are appended under the CYCLE marker below.
		if comp[e.from] != 0 || comp[e.to] != 0 {
			continue
		}
		note(e.from)
		note(e.to)
		succ[e.from] = append(succ[e.from], e.to)
		indeg[e.to]++
	}
	sort.Strings(classes)

	var out []string
	remaining := len(classes)
	for remaining > 0 {
		picked := ""
		for _, c := range classes {
			if indeg[c] == 0 {
				picked = c
				break
			}
		}
		if picked == "" {
			break // unreachable once cyclic edges are excluded
		}
		out = append(out, picked)
		indeg[picked] = -1 // never pick again
		remaining--
		for _, w := range succ[picked] {
			indeg[w]--
		}
	}

	var cyc []string
	for c, id := range comp {
		if id != 0 {
			cyc = append(cyc, c)
		}
	}
	sort.Strings(cyc)
	for _, c := range cyc {
		out = append(out, "CYCLE: "+c)
	}
	return out
}
