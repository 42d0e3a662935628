package dag

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	g := NewBuilder("rt").
		SetWindow(5, 99).
		AddLabeledTask(1, 6, "src").
		AddTask(2, 4).
		AddTask(3, 2.5).
		AddEdge(1, 2).
		AddDataEdge(2, 3, 7.5).
		MustBuild()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "rt" || back.Release != 5 || back.Deadline != 99 {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.Len() != 3 || back.NumEdges() != 2 {
		t.Fatalf("shape lost: %d tasks, %d edges", back.Len(), back.NumEdges())
	}
	if tk := back.Task(1); tk.Label != "src" || tk.Complexity != 6 {
		t.Fatalf("task 1 lost: %+v", tk)
	}
	if v := back.EdgeVolume(2, 3); v != 7.5 {
		t.Fatalf("volume lost: %v", v)
	}
	if v := back.EdgeVolume(1, 2); v != 0 {
		t.Fatalf("phantom volume: %v", v)
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	cases := []string{
		`{not json`,
		`{"name":"x","tasks":[],"edges":[]}`, // empty job
		`{"name":"x","tasks":[{"id":1,"complexity":1}],"edges":[{"from":1,"to":1}]}`,                                           // self-loop
		`{"name":"x","tasks":[{"id":1,"complexity":-2}],"edges":[]}`,                                                           // bad complexity
		`{"name":"x","tasks":[{"id":1,"complexity":1},{"id":2,"complexity":1}],"edges":[{"from":1,"to":2},{"from":2,"to":1}]}`, // cycle
	}
	for i, c := range cases {
		if _, err := UnmarshalGraph([]byte(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

// Property: marshal→unmarshal preserves structure and priorities for random
// DAGs.
func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(15))
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		back, err := UnmarshalGraph(data)
		if err != nil {
			return false
		}
		if back.Len() != g.Len() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for _, id := range g.TaskIDs() {
			if back.Complexity(id) != g.Complexity(id) {
				return false
			}
			if back.BottomLevel(id) != g.BottomLevel(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownTaskErrorNamesFirstEdge: a body with several edges to tasks
// that are not there is refused with one message, naming the first such
// edge in declaration order, however often it is parsed.
func TestUnknownTaskErrorNamesFirstEdge(t *testing.T) {
	body := []byte(`{"name":"bad","tasks":[{"id":1,"complexity":1},{"id":2,"complexity":1},{"id":3,"complexity":1}],` +
		`"edges":[{"from":1,"to":7},{"from":1,"to":8},{"from":1,"to":9}]}`)
	const want = "dag: edge 1->7 references unknown task 7"
	for i := 0; i < 200; i++ {
		if _, err := UnmarshalGraph(body); err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %q", i, err, want)
		}
	}
}

// FuzzUnmarshalGraph feeds arbitrary bytes to UnmarshalGraph, the parser
// behind every job submitted over HTTP. Each input is parsed twice and must
// give the same error or equal graphs; a graph must have task IDs exactly
// 1..Len(), a topological order that covers every task and respects every
// edge, and must round-trip through MarshalJSON to the same bytes.
func FuzzUnmarshalGraph(f *testing.F) {
	for _, seed := range []string{
		// An edge to a task that is not there (the benchmark's invalid job).
		`{"name":"bad","tasks":[{"id":1,"complexity":1}],"edges":[{"from":1,"to":9}]}`,
		// Several edges to tasks that are not there.
		`{"name":"bad3","tasks":[{"id":1,"complexity":1},{"id":2,"complexity":1},{"id":3,"complexity":1}],` +
			`"edges":[{"from":1,"to":7},{"from":1,"to":8},{"from":1,"to":9}]}`,
		// Sparse IDs: task 2 is missing.
		`{"name":"sparse","tasks":[{"id":1,"complexity":1},{"id":3,"complexity":2}],"edges":[{"from":1,"to":3}]}`,
		// A duplicate ID.
		`{"name":"dup","tasks":[{"id":1,"complexity":1},{"id":2,"complexity":1},{"id":1,"complexity":3}],"edges":[]}`,
		// A cycle.
		`{"name":"cycle","tasks":[{"id":1,"complexity":1},{"id":2,"complexity":1}],"edges":[{"from":1,"to":2},{"from":2,"to":1}]}`,
		// A valid job with a window, a label and a data volume.
		`{"name":"ok","release":2,"deadline":40,"tasks":[{"id":2,"complexity":4},{"id":1,"complexity":6,"label":"src"}],` +
			`"edges":[{"from":1,"to":2,"volume":3.5}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalGraph(data)
		again, errAgain := UnmarshalGraph(data)
		if fmt.Sprint(err) != fmt.Sprint(errAgain) || !reflect.DeepEqual(g, again) {
			t.Fatalf("two parses differ: %v / %v", err, errAgain)
		}
		if err != nil {
			return
		}
		for i, id := range g.TaskIDs() {
			if id != TaskID(i+1) {
				t.Fatalf("task %d at position %d of a %d-task graph", id, i, g.Len())
			}
		}
		pos := make([]int, g.Len())
		order := g.TopologicalOrder()
		if len(order) != g.Len() {
			t.Fatalf("topological order has %d of %d tasks", len(order), g.Len())
		}
		for i, id := range order {
			pos[id-1] = i
		}
		for _, id := range g.TaskIDs() {
			for _, s := range g.Successors(id) {
				if pos[s-1] <= pos[id-1] {
					t.Fatalf("edge %d->%d goes backwards in %v", id, s, order)
				}
			}
		}
		first, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalGraph(first)
		if err != nil {
			t.Fatalf("marshalled graph %s refused: %v", first, err)
		}
		second, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("round trip changed the graph:\n  %s\n  %s", first, second)
		}
	})
}
