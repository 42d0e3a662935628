package policy

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/schedule"
)

func chain(t *testing.T, n int, dur float64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("chain")
	for i := 1; i <= n; i++ {
		b.AddTask(dag.TaskID(i), dur)
		if i > 1 {
			b.AddEdge(dag.TaskID(i-1), dag.TaskID(i))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFullSphereReturnsSphereUnchanged(t *testing.T) {
	for _, sph := range []Sphere{FullSphere{}, HierSphere{}} {
		pcs := []graph.NodeID{3, 1, 7}
		got := sph.EnrollSet(pcs, func(graph.NodeID) float64 { return 1 })
		if len(got) != 3 || &got[0] != &pcs[0] {
			t.Fatalf("%T copied or changed the sphere: %v", sph, got)
		}
	}
	if (FullSphere{}).Name() != "full-sphere" || (HierSphere{}).Name() != "hier-region" {
		t.Fatalf("names %q, %q", FullSphere{}.Name(), HierSphere{}.Name())
	}
}

func TestKRedundantPicksNearest(t *testing.T) {
	pcs := []graph.NodeID{1, 2, 3, 4, 5}
	dist := func(m graph.NodeID) float64 {
		return map[graph.NodeID]float64{1: 5, 2: 1, 3: 4, 4: 2, 5: 3}[m]
	}
	got := KRedundant{K: 3}.EnrollSet(pcs, dist)
	want := []graph.NodeID{2, 4, 5} // nearest three, ascending site order
	if len(got) != len(want) {
		t.Fatalf("enroll set %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enroll set %v, want %v", got, want)
		}
	}
	// Degenerate cases keep the full sphere.
	if got := (KRedundant{K: 9}).EnrollSet(pcs, dist); len(got) != len(pcs) {
		t.Fatalf("K above sphere size restricted the set: %v", got)
	}
	if got := (KRedundant{K: 0}).EnrollSet(pcs, dist); len(got) != len(pcs) {
		t.Fatalf("K=0 restricted the set: %v", got)
	}
	if (KRedundant{K: 3}).Name() != "k-redundant-3" {
		t.Fatalf("name %q", (KRedundant{K: 3}).Name())
	}
}

func TestKRedundantDistanceTieBreaksBySite(t *testing.T) {
	pcs := []graph.NodeID{9, 4, 6}
	got := KRedundant{K: 2}.EnrollSet(pcs, func(graph.NodeID) float64 { return 1 })
	if len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Fatalf("tie-break set %v, want [4 6] (equal distances fall back to site order)", got)
	}
}

func TestEDFRespectsPrecedenceAndDeadline(t *testing.T) {
	plan := schedule.NewNonPreemptive()
	g := chain(t, 3, 5)
	tk, ok := EDF{}.LocalTest(plan, 0, "j", g, 0, 15.0, 1)
	if !ok {
		t.Fatal("EDF refused a feasible chain (3x5 in window 15)")
	}
	// Placements run back to back in precedence order.
	byTask := map[int]schedule.Reservation{}
	for _, pl := range tk.Placements {
		byTask[pl.Task] = pl
	}
	for i := 2; i <= 3; i++ {
		if byTask[i].Start < byTask[i-1].End-1e-9 {
			t.Fatalf("task %d starts %v before predecessor ends %v", i, byTask[i].Start, byTask[i-1].End)
		}
	}
	if _, ok := (EDF{}).LocalTest(plan, 0, "j", g, 0, 14.9, 1); ok {
		t.Fatal("EDF accepted an infeasible window")
	}
	// Power scales durations: at power 2 the chain fits in half the window.
	if _, ok := (EDF{}).LocalTest(plan, 0, "j", g, 0, 7.6, 2); !ok {
		t.Fatal("EDF ignored computing power")
	}
}

func TestLaxityThresholdRejectsTightFits(t *testing.T) {
	plan := schedule.NewNonPreemptive()
	g := chain(t, 3, 5) // finishes at 15 on an empty plan
	// Window 20: laxity 5 = 25% of the window.
	if _, ok := (LaxityThreshold{Theta: 0.2}).LocalTest(plan, 0, "j", g, 0, 20, 1); !ok {
		t.Fatal("threshold 0.2 rejected a 25%-laxity fit")
	}
	if _, ok := (LaxityThreshold{Theta: 0.3}).LocalTest(plan, 0, "j", g, 0, 20, 1); ok {
		t.Fatal("threshold 0.3 accepted a 25%-laxity fit")
	}
	// Theta 0 degenerates to EDF.
	if _, ok := (LaxityThreshold{}).LocalTest(plan, 0, "j", g, 0, 15, 1); !ok {
		t.Fatal("theta 0 diverged from EDF")
	}
	if (LaxityThreshold{Theta: 0.25}).Name() != "laxity-0.25" {
		t.Fatalf("name %q", (LaxityThreshold{Theta: 0.25}).Name())
	}
}

// The zero Set hands mapper.Build the paper's enums: CP-EFT and §12.2's
// uniform laxity.
func TestDispatchAndMapperCarryTheirEnums(t *testing.T) {
	var zero Set
	if zero.Dispatch != mapper.LaxityUniform {
		t.Fatalf("zero dispatch is %v, not uniform", zero.Dispatch)
	}
	if zero.Mapper != mapper.HeuristicCPEFT || zero.Mapper.String() != "cp-eft" {
		t.Fatalf("zero mapper is %q, not cp-eft", zero.Mapper)
	}
}
