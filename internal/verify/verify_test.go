package verify

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/graph"
)

// runWorkload drives a cluster over a random workload and returns it.
func runWorkload(t *testing.T, topo *graph.Graph, cfg core.Config, seed int64, jobs int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < jobs; i++ {
		kind := daggen.AllKinds[rng.Intn(len(daggen.AllKinds))]
		g, err := daggen.Generate(kind, 3+rng.Intn(8),
			daggen.Params{MinComplexity: 0.5, MaxComplexity: 4}, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		dl := g.CriticalPathLength() * (1.2 + rng.Float64()*3)
		if _, err := c.Submit(rng.Float64()*200, graph.NodeID(rng.Intn(topo.Len())), g, dl); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOracleAcceptsRealRuns: the independent oracle must find nothing wrong
// with actual protocol runs, preemptive or not, across seeds.
func TestOracleAcceptsRealRuns(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, pre := range []bool{false, true} {
			topo := graph.RandomConnected(10, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, seed)
			cfg := core.DefaultConfig()
			cfg.Preemptive = pre
			c := runWorkload(t, topo, cfg, seed, 30)
			if errs := CheckCluster(c, topo, 0, pre); len(errs) != 0 {
				t.Fatalf("seed %d preemptive=%v: oracle found %d violations, first: %v",
					seed, pre, len(errs), errs[0])
			}
		}
	}
}

// TestOracleAcceptsVolumeRuns: runs with §13 data volumes pass the oracle
// and record no violation — one tight job on the non-preemptive plan, and
// 120 jobs under load on the preemptive plan, whose reschedules must leave
// result transfers in flight alone. The oracle checks planned slots, not
// delivered results, so only the violation list catches a lost transfer.
func TestOracleAcceptsVolumeRuns(t *testing.T) {
	g, err := dag.NewBuilder("vol").
		AddTask(1, 6).AddTask(2, 6).AddTask(3, 3).
		AddDataEdge(1, 3, 2).AddDataEdge(2, 3, 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		preemptive bool
		throughput float64
		jobs       int
		seeds      int64
	}{
		{false, 2, 1, 1},
		{true, 0.5, 120, 6},
	} {
		for seed := int64(0); seed < tc.seeds; seed++ {
			topo := graph.RandomConnected(8, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 3+seed)
			cfg := core.DefaultConfig()
			cfg.Preemptive = tc.preemptive
			cfg.Throughput = tc.throughput
			c, err := core.NewCluster(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < tc.jobs; i++ {
				at, origin, dl := 0.0, graph.NodeID(0), 14.0
				if tc.jobs > 1 {
					at, origin, dl = rng.Float64()*200, graph.NodeID(rng.Intn(topo.Len())), 16+rng.Float64()*24
				}
				if _, err := c.Submit(at, origin, g, dl); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if v := c.Violations(); len(v) != 0 {
				t.Errorf("preemptive=%v seed %d: %d violations, first: %s", tc.preemptive, seed, len(v), v[0])
			}
			if errs := CheckCluster(c, topo, tc.throughput, tc.preemptive); len(errs) != 0 {
				t.Errorf("preemptive=%v seed %d: oracle found %d violations, first: %v", tc.preemptive, seed, len(errs), errs[0])
			}
		}
	}
}

// synthetic helpers for corruption tests

func synthJob(t *testing.T, accepted bool) *core.Job {
	t.Helper()
	g, err := dag.NewBuilder("j").
		AddTask(1, 2).AddTask(2, 2).AddEdge(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	j := &core.Job{ID: "j1", Graph: g, Arrival: 0, AbsDeadline: 100}
	if accepted {
		j.Outcome = core.AcceptedDistributed
	} else {
		j.Outcome = core.Rejected
	}
	return j
}

func lineTopo() *graph.Graph {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1.5)
	return g
}

func TestOracleCatchesMissingTask(t *testing.T) {
	j := synthJob(t, true)
	execs := []core.TaskExecution{{JobID: j.ID, Task: 1, Site: 0, Start: 0, End: 2}}
	errs := Check(lineTopo(), []*core.Job{j}, execs, 0, false)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "never executed") {
		t.Fatalf("missing task not caught: %v", errs)
	}
}

func TestOracleCatchesDeadlineMiss(t *testing.T) {
	j := synthJob(t, true)
	execs := []core.TaskExecution{
		{JobID: j.ID, Task: 1, Site: 0, Start: 0, End: 2},
		{JobID: j.ID, Task: 2, Site: 0, Start: 99, End: 101},
	}
	errs := Check(lineTopo(), []*core.Job{j}, execs, 0, false)
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "after deadline") {
			found = true
		}
	}
	if !found {
		t.Fatalf("deadline miss not caught: %v", errs)
	}
}

func TestOracleCatchesPrecedenceViolation(t *testing.T) {
	j := synthJob(t, true)
	// Successor on the other site starts only 1.0 after the predecessor
	// finishes, but the link delay is 1.5.
	execs := []core.TaskExecution{
		{JobID: j.ID, Task: 1, Site: 0, Start: 0, End: 2},
		{JobID: j.ID, Task: 2, Site: 1, Start: 3, End: 5},
	}
	errs := Check(lineTopo(), []*core.Job{j}, execs, 0, false)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "successor started") {
		t.Fatalf("precedence violation not caught: %v", errs)
	}
	// With enough transfer slack it passes.
	execs[1].Start = 3.5
	if errs := Check(lineTopo(), []*core.Job{j}, execs, 0, false); len(errs) != 0 {
		t.Fatalf("valid schedule flagged: %v", errs)
	}
	// Volumes tighten it again: volume 0 on this edge means no change, so
	// decorate a graph with a volume and re-check.
	g, err := dag.NewBuilder("jv").
		AddTask(1, 2).AddTask(2, 2).AddDataEdge(1, 2, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	jv := &core.Job{ID: "jv", Graph: g, Arrival: 0, AbsDeadline: 100, Outcome: core.AcceptedDistributed}
	execsV := []core.TaskExecution{
		{JobID: jv.ID, Task: 1, Site: 0, Start: 0, End: 2},
		{JobID: jv.ID, Task: 2, Site: 1, Start: 3.5, End: 5.5}, // needs 2 + 1.5 + 3/2 = 5
	}
	if errs := Check(lineTopo(), []*core.Job{jv}, execsV, 2, false); len(errs) == 0 {
		t.Fatal("volume-tightened precedence violation not caught")
	}
}

func TestOracleCatchesOverlap(t *testing.T) {
	j := synthJob(t, true)
	execs := []core.TaskExecution{
		{JobID: j.ID, Task: 1, Site: 0, Start: 0, End: 2},
		{JobID: j.ID, Task: 2, Site: 0, Start: 1, End: 3},
	}
	errs := Check(lineTopo(), []*core.Job{j}, execs, 0, false)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "overlapping") {
		t.Fatalf("overlap not caught: %v", errs)
	}
	// The same envelopes are legal under preemptive semantics... but then
	// precedence must still hold; task 2 starting before task 1 ends on the
	// same site violates the DAG edge, so expect exactly that error.
	errsP := Check(lineTopo(), []*core.Job{j}, execs, 0, true)
	for _, e := range errsP {
		if strings.Contains(e.Error(), "overlapping") {
			t.Fatalf("preemptive mode still flagged overlap: %v", e)
		}
	}
}

func TestOracleCatchesDuplicateAndResidue(t *testing.T) {
	j := synthJob(t, true)
	execs := []core.TaskExecution{
		{JobID: j.ID, Task: 1, Site: 0, Start: 0, End: 2},
		{JobID: j.ID, Task: 1, Site: 1, Start: 0, End: 2},
		{JobID: j.ID, Task: 2, Site: 0, Start: 10, End: 12},
	}
	errs := Check(lineTopo(), []*core.Job{j}, execs, 0, false)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "executed twice") {
		t.Fatalf("duplicate not caught: %v", errs)
	}

	rej := synthJob(t, false)
	rej.ID = "rej"
	residue := []core.TaskExecution{{JobID: rej.ID, Task: 1, Site: 0, Start: 0, End: 2}}
	errs = Check(lineTopo(), []*core.Job{rej}, residue, 0, false)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "left 1 task executions behind") {
		t.Fatalf("residue not caught: %v", errs)
	}
}
