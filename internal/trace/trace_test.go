package trace

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestGanttRendersRowsAndBars(t *testing.T) {
	spans := []Span{
		{Row: "p1", Label: "t1", Start: 0, End: 12},
		{Row: "p2", Label: "t2", Start: 0, End: 10},
		{Row: "p1", Label: "t3", Start: 13, End: 21},
	}
	out := Gantt("S", spans, 60)
	if !strings.HasPrefix(out, "S\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + 2 rows + axis
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "p1") || !strings.Contains(lines[2], "p2") {
		t.Fatalf("rows not sorted/labelled:\n%s", out)
	}
	if !strings.Contains(out, "t1") || !strings.Contains(out, "t3") {
		t.Fatalf("bar labels missing:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars drawn:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	out := Gantt("x", nil, 40)
	if !strings.Contains(out, "empty") {
		t.Fatalf("empty schedule rendering: %q", out)
	}
}

func TestGanttTinySpan(t *testing.T) {
	// A zero-length span must still paint at least one cell, not panic.
	out := Gantt("", []Span{{Row: "p", Label: "", Start: 5, End: 5}, {Row: "p", Start: 0, End: 10}}, 40)
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars:\n%s", out)
	}
}

func TestTopologyDOT(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 1)
	dot := TopologyDOT("net", g)
	for _, frag := range []string{"graph \"net\"", "0 -- 1", "1 -- 2", "2.5"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	if strings.Contains(dot, "1 -- 0") {
		t.Error("edges duplicated in DOT")
	}
}

// TestRegionDOT: nodes are filled by region, landmarks doubled and the one
// edge across the region boundary dashed.
func TestRegionDOT(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 1)
	const want = `graph "regions" {
  layout=neato;
  0 [shape=doublecircle,style=filled,fillcolor="lightblue",label="0/r0"];
  1 [shape=circle,style=filled,fillcolor="lightblue",label="1/r0"];
  2 [shape=doublecircle,style=filled,fillcolor="lightpink",label="2/r1"];
  0 -- 1 [label="2.5"];
  1 -- 2 [label="1",style=dashed];
}
`
	if got := RegionDOT("regions", g, []int{0, 0, 1}, []graph.NodeID{0, 2}); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}
