package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
)

func fastLine(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.05)
	}
	return g
}

func chainJob(t testing.TB, n int, dur float64) *dag.Graph {
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

func parJob(t testing.TB, n int, dur float64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("par")
	for i := 1; i <= n; i++ {
		b.AddTask(dag.TaskID(i), dur)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLocalAcceptanceNoJobTraffic(t *testing.T) {
	c, err := NewCluster(fastLine(3), DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(1, 1, chainJob(t, 2, 5), 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if job.Outcome != core.AcceptedLocal {
		t.Fatalf("outcome %v, want accepted-local", job.Outcome)
	}
	if !job.Done || job.CompletedAt > job.AbsDeadline {
		t.Fatalf("completion: done=%v at %v", job.Done, job.CompletedAt)
	}
	kinds := c.Stats().ByKind()
	if kinds["fab.offer"] != 0 || kinds["fab.rfb"] != 0 {
		t.Fatalf("local job generated bidding traffic: %v", kinds)
	}
	// Periodic surplus floods must exist regardless.
	if kinds["fab.surplus"] == 0 {
		t.Fatal("no surplus floods observed")
	}
}

func TestMigrationToIdleSite(t *testing.T) {
	c, err := NewCluster(fastLine(3), DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	// Saturate site 0 with a long job, then offer a second job that cannot
	// fit locally: it must migrate whole to another site and be accepted.
	j1, _ := c.Submit(1, 0, chainJob(t, 1, 90), 100)
	j2, _ := c.Submit(30, 0, chainJob(t, 1, 60), 75)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if j1.Outcome != core.AcceptedLocal {
		t.Fatalf("j1 outcome %v", j1.Outcome)
	}
	if j2.Outcome != core.AcceptedDistributed {
		t.Fatalf("j2 outcome %v (stage %q), want migrated acceptance", j2.Outcome, j2.RejectStage)
	}
	kinds := c.Stats().ByKind()
	if kinds["fab.offer"] == 0 || kinds["fab.verdict"] == 0 {
		t.Fatalf("expected offer/verdict traffic: %v", kinds)
	}
}

func TestCannotSplitParallelJob(t *testing.T) {
	// The functional gap to RTDS: two independent 10-unit tasks with
	// deadline 16 fit nowhere as a whole, so focused addressing + bidding
	// rejects even though two sites together could run them.
	c, err := NewCluster(fastLine(3), DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	job, _ := c.Submit(1, 0, parJob(t, 2, 10), 16)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if job.Outcome != core.Rejected {
		t.Fatalf("outcome %v, want rejected (whole-job migration cannot split)", job.Outcome)
	}
}

func TestSurplusFloodCount(t *testing.T) {
	// Each flood from one site traverses every edge at least once and at
	// most twice (classic flooding bounds on general graphs). A horizon
	// shorter than the surplus period leaves the one round at t=0.
	topo := fastLine(5)
	c, err := NewCluster(topo, DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	got := c.Stats().ByKind()["fab.surplus"]
	n := int64(topo.Len())
	e := int64(topo.NumEdges())
	if got < n*e || got > 2*n*e {
		t.Fatalf("surplus messages %d outside [%d, %d]", got, n*e, 2*n*e)
	}
}

func TestFloodCostGrowsWithNetwork(t *testing.T) {
	var prev int64
	for _, n := range []int{4, 8, 16} {
		c, err := NewCluster(fastLine(n), DefaultConfig(50)) // floods at 0, 25 and 50
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		got := c.Stats().Messages()
		if got <= prev {
			t.Fatalf("n=%d: flood traffic %d did not grow (prev %d)", n, got, prev)
		}
		prev = got
	}
}

func TestAllJobsDecided(t *testing.T) {
	c, err := NewCluster(fastLine(6), DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		g := chainJob(t, 1+i%4, 8)
		if _, err := c.Submit(float64(i)*20, graph.NodeID(i%6), g, 40+float64(i%3)*20); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range c.Jobs() {
		if j.Outcome == core.Pending {
			t.Fatalf("job %s undecided", j.ID)
		}
		if j.Accepted() && (!j.Done || j.CompletedAt > j.AbsDeadline+1e-9) {
			t.Fatalf("accepted job %s missed deadline (done=%v at %v, d=%v)",
				j.ID, j.Done, j.CompletedAt, j.AbsDeadline)
		}
	}
	if r := c.GuaranteeRatio(); r <= 0 || r > 1 {
		t.Fatalf("guarantee ratio %v", r)
	}
}

func TestBaselineDeterministic(t *testing.T) {
	run := func() (float64, int64) {
		c, err := NewCluster(fastLine(6), DefaultConfig(300))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			g := chainJob(t, 1+i%3, 10)
			if _, err := c.Submit(float64(i)*15, graph.NodeID(i%6), g, 35); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.GuaranteeRatio(), c.Stats().Messages()
	}
	r1, m1 := run()
	r2, m2 := run()
	if r1 != r2 || m1 != m2 {
		t.Fatalf("nondeterministic baseline: (%v,%d) vs (%v,%d)", r1, m1, r2, m2)
	}
}
