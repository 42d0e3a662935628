package graph

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

func TestPartitionAssignsEveryNodeWithinCapacity(t *testing.T) {
	g := RandomConnected(64, 4, DelayRange{Min: 0.05, Max: 0.3}, 7)
	for _, nparts := range []int{1, 2, 3, 5, 8, 17} {
		part := g.Partition(nparts)
		if len(part) != 64 {
			t.Fatalf("nparts=%d: len=%d", nparts, len(part))
		}
		size := make([]int, nparts)
		for v, p := range part {
			if p < 0 || p >= nparts {
				t.Fatalf("nparts=%d: node %d assigned out-of-range part %d", nparts, v, p)
			}
			size[p]++
		}
		// Connectivity takes precedence over the strict capacity: a node
		// whose only assigned neighbors sit in full parts overflows one of
		// them rather than teleporting into a disconnected region, so the
		// balance bound carries one node of slack.
		capPer := (64 + nparts - 1) / nparts
		for p, s := range size {
			if s == 0 {
				t.Fatalf("nparts=%d: part %d empty", nparts, p)
			}
			if s > capPer+1 {
				t.Fatalf("nparts=%d: part %d holds %d nodes, capacity %d+1", nparts, p, s, capPer)
			}
		}
		for p := 0; p < nparts; p++ {
			if comps := g.partComponents(part, p); len(comps) > 1 {
				t.Fatalf("nparts=%d: part %d splits into %d components", nparts, p, len(comps))
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	a := RandomConnected(48, 3, DelayRange{Min: 0.05, Max: 0.3}, 11)
	b := RandomConnected(48, 3, DelayRange{Min: 0.05, Max: 0.3}, 11)
	for _, nparts := range []int{2, 4, 7} {
		if !reflect.DeepEqual(a.Partition(nparts), b.Partition(nparts)) {
			t.Fatalf("nparts=%d: same graph, different assignments", nparts)
		}
	}
}

func TestPartitionClampsAndValidates(t *testing.T) {
	g := RandomConnected(5, 2, DelayRange{Min: 0.1, Max: 0.2}, 3)
	part := g.Partition(9) // clamped to n: every node its own part
	seen := map[int]bool{}
	for _, p := range part {
		if seen[p] {
			t.Fatalf("nparts>n: part %d reused in %v", p, part)
		}
		seen[p] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Partition(0) did not panic")
		}
	}()
	g.Partition(0)
}

func TestPartitionBeatsRoundRobinCut(t *testing.T) {
	// The BFS-grown, refined assignment should cut far fewer edges than the
	// worst-case striped assignment on a geometric-ish random topology.
	g := RandomConnected(96, 4, DelayRange{Min: 0.05, Max: 0.3}, 5)
	part := g.Partition(4)
	striped := make([]int, 96)
	for v := range striped {
		striped[v] = v % 4
	}
	if got, worst := g.CutEdges(part), g.CutEdges(striped); got >= worst {
		t.Fatalf("partitioner cut %d edges, striping cuts %d", got, worst)
	}
}

// TestPartitionAtScale is the property suite backing the hierarchical
// routing layer: at n ∈ {256, 1024, 4096} with ~√n parts, every region must
// be non-empty, internally connected (the intra-region distance-vector
// bootstrap only converges over paths that stay inside the region), balanced
// within 2·ceil(n/nparts), and the assignment must be a pure function of the
// graph.
func TestPartitionAtScale(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		nparts := 1
		for nparts*nparts < n {
			nparts++
		}
		for _, seed := range []int64{1, 42} {
			g := RandomConnected(n, 4, DelayRange{Min: 0.05, Max: 0.3}, seed)
			part := g.Partition(nparts)
			size := make([]int, nparts)
			for v, p := range part {
				if p < 0 || p >= nparts {
					t.Fatalf("n=%d seed=%d: node %d in out-of-range part %d", n, seed, v, p)
				}
				size[p]++
			}
			capPer := (n + nparts - 1) / nparts
			for p, s := range size {
				if s == 0 {
					t.Errorf("n=%d seed=%d: part %d empty", n, seed, p)
				}
				if s > 2*capPer {
					t.Errorf("n=%d seed=%d: part %d holds %d nodes, balance bound %d",
						n, seed, p, s, 2*capPer)
				}
			}
			for p := 0; p < nparts; p++ {
				if comps := g.partComponents(part, p); len(comps) > 1 {
					t.Errorf("n=%d seed=%d: part %d splits into %d components (sizes %d, %d, ...)",
						n, seed, p, len(comps), len(comps[0]), len(comps[1]))
				}
			}
			if again := g.Partition(nparts); !reflect.DeepEqual(part, again) {
				t.Errorf("n=%d seed=%d: two runs disagree", n, seed)
			}
		}
	}
}

// partitionGolden was generated at the commit before the growth loop stopped
// re-prepending its frontier head: the assignment is a pure function of the
// graph, so any rewrite of the loop must reproduce it exactly.
var partitionGolden = map[string]string{
	"ring97/2":        "39da9aa4d4f4eb59",
	"ring97/7":        "0d38a745af81816a",
	"ring97/16":       "0baf9682d6c38a07",
	"ring97/32":       "4c99353e29121643",
	"grid12x12/2":     "817e6251a9eb4f25",
	"grid12x12/7":     "36cb2544e8e792f8",
	"grid12x12/16":    "5a6b96320e88a916",
	"grid12x12/32":    "6f9e4ca153d08e59",
	"torus9x9/2":      "957908d15400fae8",
	"torus9x9/7":      "a3f28531bd7d490f",
	"torus9x9/16":     "ab3e5528e04f6031",
	"torus9x9/32":     "f9bcfa7e1cbb00b0",
	"star40/2":        "81d26111cb9ea37c",
	"star40/7":        "79fa9fd97c917e62",
	"star40/16":       "0a9c9420ef34df3b",
	"star40/32":       "aac5d7045b7d7389",
	"tree150/2":       "36be46500692361d",
	"tree150/7":       "968a49e8ac0a1531",
	"tree150/16":      "af887170a428f853",
	"tree150/32":      "a3245022a44e572f",
	"random256/2":     "e885af2630284bb5",
	"random256/7":     "70caad877b0243be",
	"random256/16":    "00def2f8c51a99c1",
	"random256/32":    "4330c99967b60c2b",
	"random1024/2":    "8a48a875b0da3e2d",
	"random1024/7":    "460343e3c63542d2",
	"random1024/16":   "57eda90e9e51b08b",
	"random1024/32":   "06229b49acc3690c",
	"geometric200/2":  "ebcd96f21792d1ad",
	"geometric200/7":  "7bca8d98d16006d1",
	"geometric200/16": "7956a42ce611bb70",
	"geometric200/32": "9eb7018b0818f236",
	"split60/2":       "aee39246beb43f7d",
	"split60/7":       "32e3be39f680263b",
	"split60/16":      "9a217c5e412231a1",
	"split60/32":      "906a92c292329901",
}

// TestPartitionMatchesGolden pins Partition's output over a table of
// topologies (a disconnected one among them) and part counts.
func TestPartitionMatchesGolden(t *testing.T) {
	std := DelayRange{Min: 0.05, Max: 0.3}
	split := New(60) // two disjoint rings: the dry-frontier fallback
	for i := 0; i < 30; i++ {
		split.MustAddEdge(NodeID(i), NodeID((i+1)%30), 1)
		split.MustAddEdge(NodeID(30+i), NodeID(30+(i+1)%30), 1)
	}
	topos := []struct {
		name string
		g    *Graph
	}{
		{"ring97", Ring(97, UnitDelay, 1)},
		{"grid12x12", Grid(12, 12, std, 2)},
		{"torus9x9", Torus(9, 9, std, 3)},
		{"star40", Star(40, std, 4)},
		{"tree150", RandomTree(150, std, 5)},
		{"random256", RandomConnected(256, 4, std, 6)},
		{"random1024", RandomConnected(1024, 4, std, 7)},
		{"geometric200", RandomGeometric(200, 0.15, std, 8)},
		{"split60", split},
	}
	for _, tc := range topos {
		for _, nparts := range []int{2, 7, 16, 32} {
			h := fnv.New64a()
			for _, p := range tc.g.Partition(nparts) {
				fmt.Fprintf(h, "%d,", p)
			}
			key := fmt.Sprintf("%s/%d", tc.name, nparts)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != partitionGolden[key] {
				t.Errorf("%q: %q, // golden %q", key, got, partitionGolden[key])
			}
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	g := RandomConnected(1024, 4, DelayRange{Min: 0.05, Max: 0.3}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Partition(32)
	}
}

func TestMinCrossDelay(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(1, 2, 0.2)
	g.AddEdge(2, 3, 0.9)
	part := []int{0, 0, 1, 1}
	if got := g.MinCrossDelay(part); got != 0.2 {
		t.Fatalf("MinCrossDelay = %v, want 0.2 (the 1-2 cut edge)", got)
	}
	if got := g.CutEdges(part); got != 1 {
		t.Fatalf("CutEdges = %d, want 1", got)
	}
	all := []int{0, 0, 0, 0}
	if got := g.MinCrossDelay(all); !math.IsInf(got, 1) {
		t.Fatalf("MinCrossDelay with one part = %v, want +Inf", got)
	}
	if got := g.CutEdges(all); got != 0 {
		t.Fatalf("CutEdges with one part = %d, want 0", got)
	}
}
