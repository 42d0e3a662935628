package dag

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph builds the Fig. 2 example DAG, read off the paper's Fig. 4 as
// experiments.PaperExampleDAG explains: edges {1->3, 2->3, 1->4, 3->5,
// 4->5}, c = (6, 4, 4, 2, 5).
func paperGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := NewBuilder("fig2").
		SetWindow(0, 66).
		AddTask(1, 6).
		AddTask(2, 4).
		AddTask(3, 4).
		AddTask(4, 2).
		AddTask(5, 5).
		AddEdge(1, 3).
		AddEdge(2, 3).
		AddEdge(1, 4).
		AddEdge(3, 5).
		AddEdge(4, 5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Error("empty job accepted")
	}
	// Task IDs are exactly 1..n; the error names the first duplicate or gap.
	for _, c := range []struct {
		ids  []TaskID
		want string
	}{
		{[]TaskID{1, 1}, "duplicate task 1"},
		{[]TaskID{2, 1, 2, 3}, "duplicate task 2"},
		{[]TaskID{1, 3}, "2 is missing (next is 3)"},
		{[]TaskID{2}, "1 is missing (next is 2)"},
		{[]TaskID{3, 1, 2, 5}, "4 is missing (next is 5)"},
	} {
		b := NewBuilder("ids")
		for _, id := range c.ids {
			b.AddTask(id, 1)
		}
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("IDs %v: error %v, want one naming %q", c.ids, err, c.want)
		}
	}
	if _, err := NewBuilder("neg").AddTask(1, -3).Build(); err == nil {
		t.Error("negative complexity accepted")
	}
	if _, err := NewBuilder("zero").AddTask(1, 0).Build(); err == nil {
		t.Error("zero complexity accepted")
	}
	if _, err := NewBuilder("badid").AddTask(0, 1).Build(); err == nil {
		t.Error("non-positive ID accepted")
	}
	if _, err := NewBuilder("loop").AddTask(1, 1).AddEdge(1, 1).Build(); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewBuilder("dangling").AddTask(1, 1).AddEdge(1, 9).Build(); err == nil {
		t.Error("edge to unknown task accepted")
	}
	if _, err := NewBuilder("dupedge").
		AddTask(1, 1).AddTask(2, 1).AddEdge(1, 2).AddEdge(1, 2).Build(); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := NewBuilder("cycle").
		AddTask(1, 1).AddTask(2, 1).AddTask(3, 1).
		AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 1).Build(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestPaperGraphStructure(t *testing.T) {
	g := paperGraph(t)
	if g.Len() != 5 || g.NumEdges() != 5 {
		t.Fatalf("size = (%d tasks, %d edges), want (5, 5)", g.Len(), g.NumEdges())
	}
	wantSucc := map[TaskID][]TaskID{1: {3, 4}, 2: {3}, 3: {5}, 4: {5}, 5: {}}
	for id, want := range wantSucc {
		got := g.Successors(id)
		if len(got) != len(want) {
			t.Fatalf("succ(%d) = %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("succ(%d) = %v, want %v", id, got, want)
			}
		}
	}
	if got := g.Predecessors(5); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("pred(5) = %v, want [3 4]", got)
	}
	srcs := g.Sources()
	if len(srcs) != 2 || srcs[0] != 1 || srcs[1] != 2 {
		t.Fatalf("sources = %v, want [1 2]", srcs)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || sinks[0] != 5 {
		t.Fatalf("sinks = %v, want [5]", sinks)
	}
	if w := g.TotalComplexity(); w != 21 {
		t.Fatalf("total work = %v, want 21", w)
	}
	if s, want := g.String(), `dag "fig2": 5 tasks, 5 edges, work 21, cp 15`; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}

func TestPaperGraphPriorities(t *testing.T) {
	g := paperGraph(t)
	// Longest node-weighted path from each task to a sink, task included:
	// t1: 6+4+5 = 15, t2: 4+4+5 = 13, t3: 4+5 = 9, t4: 2+5 = 7, t5: 5.
	want := map[TaskID]float64{1: 15, 2: 13, 3: 9, 4: 7, 5: 5}
	for id, w := range want {
		if got := g.BottomLevel(id); got != w {
			t.Errorf("BottomLevel(%d) = %v, want %v", id, got, w)
		}
	}
	if cp := g.CriticalPathLength(); cp != 15 {
		t.Fatalf("critical path length = %v, want 15", cp)
	}
	path := g.CriticalPath()
	want2 := []TaskID{1, 3, 5}
	if len(path) != 3 {
		t.Fatalf("critical path = %v, want %v", path, want2)
	}
	for i := range want2 {
		if path[i] != want2[i] {
			t.Fatalf("critical path = %v, want %v", path, want2)
		}
	}
}

func TestTopologicalOrderDeterministic(t *testing.T) {
	g := paperGraph(t)
	got := g.TopologicalOrder()
	want := []TaskID{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topo = %v, want %v", got, want)
		}
	}
}

func TestWidth(t *testing.T) {
	g := paperGraph(t)
	// Layers: {1,2} depth 0, {3,4} depth 1, {5} depth 2.
	if w := g.Width(); w != 2 {
		t.Fatalf("width = %d, want 2", w)
	}
}

func TestDOT(t *testing.T) {
	g := paperGraph(t)
	dot := g.DOT()
	for _, frag := range []string{"digraph", "1 -> 3", "4 -> 5", "c=6"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

// randomDAG builds a random layered DAG directly (without daggen, which sits
// above this package).
func randomDAG(rng *rand.Rand, n int) *Graph {
	b := NewBuilder("rand")
	for i := 1; i <= n; i++ {
		b.AddTask(TaskID(i), 1+rng.Float64()*9)
	}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if rng.Float64() < 0.25 {
				b.AddEdge(TaskID(i), TaskID(j))
			}
		}
	}
	return b.MustBuild()
}

// Property: every topological order places predecessors before successors.
func TestPropertyTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(20))
		pos := make(map[TaskID]int)
		for i, id := range g.TopologicalOrder() {
			pos[id] = i
		}
		if len(pos) != g.Len() {
			return false
		}
		for _, id := range g.TaskIDs() {
			for _, s := range g.Successors(id) {
				if pos[id] >= pos[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: bottom level of a task exceeds that of all its successors by at
// least its own complexity, and equals complexity for sinks.
func TestPropertyBottomLevelRecurrence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(20))
		for _, id := range g.TaskIDs() {
			succ := g.Successors(id)
			best := 0.0
			for _, s := range succ {
				if g.BottomLevel(s) > best {
					best = g.BottomLevel(s)
				}
			}
			if math.Abs(g.BottomLevel(id)-(best+g.Complexity(id))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: critical path is a chain of edges whose node weights sum to the
// critical path length.
func TestPropertyCriticalPathConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(20))
		path := g.CriticalPath()
		var sum float64
		for i, id := range path {
			sum += g.Complexity(id)
			if i > 0 && !slices.Contains(g.Successors(path[i-1]), id) {
				return false
			}
		}
		return math.Abs(sum-g.CriticalPathLength()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sources and Sinks are consistent with predecessor/successor sets.
func TestPropertySourcesSinks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(20))
		for _, s := range g.Sources() {
			if len(g.Predecessors(s)) != 0 {
				return false
			}
		}
		for _, s := range g.Sinks() {
			if len(g.Successors(s)) != 0 {
				return false
			}
		}
		return len(g.Sources()) >= 1 && len(g.Sinks()) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		randomDAG(rng, 100)
	}
}
