// Package dag models a real-time job: a Directed Acyclic Graph G = (T, E) of
// tasks with computational complexities, plus a job-level release r and hard
// deadline d (paper §2).
//
// Tasks are numbered 1..n, as in the paper's examples. The package provides
// the graph algorithms the mapper and local scheduler need: topological
// orders, critical-path (bottom-level) priorities, path queries, and
// structural validation.
package dag

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// TaskID identifies a task within one job. The tasks of a built Graph are
// numbered exactly 1..n (Build refuses any other set), so a per-task table
// is a slice of length n indexed by id-1.
type TaskID int

// Task is one node of the precedence graph.
type Task struct {
	ID         TaskID
	Complexity float64 // c(t): execution time on an idle unit-power site
	Label      string  // optional human-readable name
}

// Graph is a job's precedence graph together with its real-time window.
// Build with NewBuilder; a built Graph is immutable and safe for concurrent
// readers.
type Graph struct {
	Name     string
	Release  float64 // r: job release time (absolute or 0 for "on arrival")
	Deadline float64 // d: job deadline, relative to Release when used by the mapper

	tasks []Task                // index = ID-1
	succ  [][]TaskID            // sorted adjacency, index = ID-1
	pred  [][]TaskID            // sorted reverse adjacency, index = ID-1
	topo  []TaskID              // cached topological order (Kahn, smallest-ID-first)
	blev  []float64             // cached bottom levels (node weights only), index = ID-1
	vol   map[[2]TaskID]float64 // optional per-edge data volumes (§13)
}

// Builder accumulates tasks and edges and validates the result.
type Builder struct {
	name     string
	release  float64
	deadline float64
	tasks    []Task
	edges    [][2]TaskID // declaration order: Build names the first bad edge
	seen     map[[2]TaskID]bool
	volumes  map[[2]TaskID]float64
	err      error
}

// NewBuilder starts a job graph. deadline is interpreted by the scheduler as
// relative to the job's arrival unless release is set explicitly.
func NewBuilder(name string) *Builder {
	return &Builder{
		name: name,
		seen: make(map[[2]TaskID]bool),
	}
}

// SetWindow records the job release and deadline.
func (b *Builder) SetWindow(release, deadline float64) *Builder {
	b.release, b.deadline = release, deadline
	return b
}

// AddTask declares a task. The IDs of a job must be exactly 1..n, added in
// any order (Build checks the set); complexity must be positive and finite
// (weights are non-negative throughout the paper; we require strictly
// positive so durations are meaningful).
func (b *Builder) AddTask(id TaskID, complexity float64) *Builder {
	return b.AddLabeledTask(id, complexity, "")
}

// AddLabeledTask is AddTask with a display label.
func (b *Builder) AddLabeledTask(id TaskID, complexity float64, label string) *Builder {
	if b.err != nil {
		return b
	}
	if id <= 0 {
		b.err = fmt.Errorf("dag: task ID %d must be positive", id)
		return b
	}
	if complexity <= 0 || math.IsNaN(complexity) || math.IsInf(complexity, 0) {
		b.err = fmt.Errorf("dag: task %d has invalid complexity %v", id, complexity)
		return b
	}
	b.tasks = append(b.tasks, Task{ID: id, Complexity: complexity, Label: label})
	return b
}

// AddEdge declares a precedence constraint from -> to.
func (b *Builder) AddEdge(from, to TaskID) *Builder {
	return b.AddDataEdge(from, to, 0)
}

// AddDataEdge declares a precedence constraint that also transfers `volume`
// units of data from the predecessor's result to the successor (§13
// "Communication Delays": arcs of the DAG decorated with data volumes).
// A volume of 0 means negligible data (a pure control dependency).
func (b *Builder) AddDataEdge(from, to TaskID, volume float64) *Builder {
	if b.err != nil {
		return b
	}
	if from == to {
		b.err = fmt.Errorf("dag: self-loop at task %d", from)
		return b
	}
	if volume < 0 || math.IsNaN(volume) || math.IsInf(volume, 0) {
		b.err = fmt.Errorf("dag: invalid data volume %v on %d->%d", volume, from, to)
		return b
	}
	key := [2]TaskID{from, to}
	if b.seen[key] {
		b.err = fmt.Errorf("dag: duplicate edge %d->%d", from, to)
		return b
	}
	b.seen[key] = true
	b.edges = append(b.edges, key)
	if volume > 0 {
		if b.volumes == nil {
			b.volumes = make(map[[2]TaskID]float64)
		}
		b.volumes[key] = volume
	}
	return b
}

// Build validates and freezes the graph. It fails if the task set is empty
// or its IDs are not exactly 1..n (naming the first duplicate or missing
// ID), if any edge references an undeclared task (naming the first such
// edge in declaration order), or if the graph has a cycle.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("dag: job %q has no tasks", b.name)
	}
	g := &Graph{
		Name:     b.name,
		Release:  b.release,
		Deadline: b.deadline,
		tasks:    append([]Task(nil), b.tasks...),
	}
	n := len(g.tasks)
	sort.Slice(g.tasks, func(i, j int) bool { return g.tasks[i].ID < g.tasks[j].ID })
	for i, t := range g.tasks {
		switch want := TaskID(i + 1); {
		case t.ID == want:
		case i > 0 && t.ID == g.tasks[i-1].ID:
			return nil, fmt.Errorf("dag: duplicate task %d", t.ID)
		default:
			return nil, fmt.Errorf("dag: job %q: task IDs must be 1..%d, but %d is missing (next is %d)", b.name, n, want, t.ID)
		}
	}
	g.succ = make([][]TaskID, n)
	g.pred = make([][]TaskID, n)
	for _, key := range b.edges {
		from, to := key[0], key[1]
		for _, id := range key {
			if !g.Has(id) {
				return nil, fmt.Errorf("dag: edge %d->%d references unknown task %d", from, to, id)
			}
		}
		g.succ[from-1] = append(g.succ[from-1], to)
		g.pred[to-1] = append(g.pred[to-1], from)
	}
	for i := range g.succ {
		sort.Slice(g.succ[i], func(a, b int) bool { return g.succ[i][a] < g.succ[i][b] })
		sort.Slice(g.pred[i], func(a, b int) bool { return g.pred[i][a] < g.pred[i][b] })
	}
	if len(b.volumes) > 0 {
		g.vol = make(map[[2]TaskID]float64, len(b.volumes))
		for k, v := range b.volumes {
			g.vol[k] = v
		}
	}
	topo, err := g.computeTopo()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	g.blev = g.computeBottomLevels()
	return g, nil
}

// MustBuild is Build but panics on error; for generators and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Len reports the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// NumEdges reports the number of precedence constraints.
func (g *Graph) NumEdges() int {
	total := 0
	for _, s := range g.succ {
		total += len(s)
	}
	return total
}

// Tasks returns the tasks sorted by ID. The slice is owned by the graph.
func (g *Graph) Tasks() []Task { return g.tasks }

// TaskIDs returns all task IDs in increasing order.
func (g *Graph) TaskIDs() []TaskID {
	ids := make([]TaskID, len(g.tasks))
	for i, t := range g.tasks {
		ids[i] = t.ID
	}
	return ids
}

// Has reports whether id names a task of the graph, that is, lies in 1..n.
// Every other accessor takes a valid ID; check one that came from outside
// the process (a peer's message) with Has first.
func (g *Graph) Has(id TaskID) bool { return id >= 1 && int(id) <= len(g.tasks) }

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id-1] }

// Complexity returns c(t).
func (g *Graph) Complexity(id TaskID) float64 { return g.tasks[id-1].Complexity }

// Successors returns Γ+(t) sorted by ID; the slice is owned by the graph.
func (g *Graph) Successors(id TaskID) []TaskID { return g.succ[id-1] }

// Predecessors returns Γ-(t) sorted by ID; the slice is owned by the graph.
func (g *Graph) Predecessors(id TaskID) []TaskID { return g.pred[id-1] }

// Sources returns tasks with no predecessors, sorted by ID.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i, t := range g.tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// Sinks returns tasks with no successors, sorted by ID.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i, t := range g.tasks {
		if len(g.succ[i]) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// TotalComplexity returns Σ c(t), the job's total work.
func (g *Graph) TotalComplexity() float64 {
	var sum float64
	for _, t := range g.tasks {
		sum += t.Complexity
	}
	return sum
}

func (g *Graph) computeTopo() ([]TaskID, error) {
	indeg := make([]int, len(g.tasks))
	// Min-heap behaviour via sorted ready list keeps the order deterministic
	// (smallest ID first among ready tasks).
	var ready []TaskID
	for i, t := range g.tasks {
		indeg[i] = len(g.pred[i])
		if indeg[i] == 0 {
			ready = append(ready, t.ID)
		}
	}
	var order []TaskID
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, s := range g.Successors(id) {
			indeg[s-1]--
			if indeg[s-1] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("dag: job %q has a cycle", g.Name)
	}
	return order, nil
}

// TopologicalOrder returns a deterministic topological order (smallest ID
// first among ready tasks). The slice is owned by the graph.
func (g *Graph) TopologicalOrder() []TaskID { return g.topo }

func (g *Graph) computeBottomLevels() []float64 {
	bl := make([]float64, len(g.tasks))
	topo := g.topo
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		best := 0.0
		for _, s := range g.Successors(id) {
			if bl[s-1] > best {
				best = bl[s-1]
			}
		}
		bl[id-1] = best + g.Complexity(id)
	}
	return bl
}

// BottomLevel returns the length of the longest path (node weights only,
// task included) from t to a sink — the list-scheduling priority of paper
// §12: "the priority of a task ti is the length of the longest path from ti
// to a sink task in the graph".
func (g *Graph) BottomLevel(id TaskID) float64 { return g.blev[id-1] }

// CriticalPathLength is the longest node-weighted path in the graph: the
// minimum possible makespan on unlimited unit-power processors with free
// communication.
func (g *Graph) CriticalPathLength() float64 {
	var best float64
	for _, v := range g.blev {
		best = max(best, v)
	}
	return best
}

// CriticalPath returns one longest node-weighted path, source to sink,
// deterministically (smallest IDs among ties).
func (g *Graph) CriticalPath() []TaskID {
	var start TaskID
	best := -1.0
	for _, t := range g.tasks {
		if v := g.blev[t.ID-1]; v > best || (v == best && t.ID < start) {
			best, start = v, t.ID
		}
	}
	// Only sources can start a maximal path, but a non-source with maximal
	// bottom level can't exist unless its predecessors have larger levels, so
	// picking the global max is safe.
	var path []TaskID
	cur := start
	for {
		path = append(path, cur)
		succ := g.Successors(cur)
		if len(succ) == 0 {
			return path
		}
		next := TaskID(-1)
		want := g.BottomLevel(cur) - g.Complexity(cur)
		for _, s := range succ {
			if math.Abs(g.BottomLevel(s)-want) < 1e-12 {
				next = s
				break // successors sorted by ID: first match is smallest
			}
		}
		if next < 0 {
			// Float drift fallback: take the successor with max bottom level.
			for _, s := range succ {
				if next < 0 || g.BottomLevel(s) > g.BottomLevel(next) {
					next = s
				}
			}
		}
		cur = next
	}
}

// EdgeVolume returns the data volume transferred along edge from -> to
// (0 when the edge carries no data or does not exist).
func (g *Graph) EdgeVolume(from, to TaskID) float64 {
	return g.vol[[2]TaskID{from, to}]
}

// PriorityOrder returns the list-scheduling order of paper §12: repeatedly
// pick, among free tasks (all predecessors already ordered), the one with
// the largest bottom-level priority, ties to the smallest ID. The result is
// a topological order.
func (g *Graph) PriorityOrder() []TaskID {
	remaining := make([]int, len(g.tasks))
	var free []TaskID
	for i, t := range g.tasks {
		remaining[i] = len(g.pred[i])
		if remaining[i] == 0 {
			free = append(free, t.ID)
		}
	}
	order := make([]TaskID, 0, len(g.tasks))
	for len(free) > 0 {
		// A total order (bottom level, then ID), so any sort agrees;
		// slices.SortFunc needs no reflection-built swapper.
		slices.SortFunc(free, func(a, b TaskID) int {
			if c := cmp.Compare(g.blev[b-1], g.blev[a-1]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		id := free[0]
		free = free[1:]
		order = append(order, id)
		for _, s := range g.Successors(id) {
			remaining[s-1]--
			if remaining[s-1] == 0 {
				free = append(free, s)
			}
		}
	}
	return order
}

// Width returns the size of the largest antichain layer under the canonical
// longest-path layering — an upper bound on useful parallelism. (This is the
// layer width, not the true maximum antichain, which is what scheduling
// heuristics conventionally use.)
func (g *Graph) Width() int {
	depth := make([]int, len(g.tasks))
	counts := make([]int, len(g.tasks)) // a depth is below n
	for _, id := range g.topo {
		d := 0
		for _, p := range g.Predecessors(id) {
			d = max(d, depth[p-1]+1)
		}
		depth[id-1] = d
		counts[d]++
	}
	w := 0
	for _, c := range counts {
		if c > w {
			w = c
		}
	}
	return w
}

// String renders a compact description for logs.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dag %q: %d tasks, %d edges, work %.6g, cp %.6g",
		g.Name, g.Len(), g.NumEdges(), g.TotalComplexity(), g.CriticalPathLength())
	return sb.String()
}

// DOT renders the graph in Graphviz format.
func (g *Graph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, t := range g.tasks {
		label := t.Label
		if label == "" {
			label = fmt.Sprintf("t%d", t.ID)
		}
		fmt.Fprintf(&sb, "  %d [label=\"%s\\nc=%.4g\"];\n", t.ID, label, t.Complexity)
	}
	for _, t := range g.tasks {
		for _, s := range g.Successors(t.ID) {
			fmt.Fprintf(&sb, "  %d -> %d;\n", t.ID, s)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
