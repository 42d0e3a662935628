package core

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/graph"
)

// fastLine builds an n-site line with very small link delays so protocol
// latency is negligible next to task durations.
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

func mustCluster(t testing.TB, topo *graph.Graph, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runAll(t testing.TB, c *Cluster) {
	t.Helper()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("causality violations: %v", v)
	}
	if !c.AllIdle() {
		t.Fatal("sites not idle after drain (stuck locks or transactions)")
	}
}

func TestLocalAcceptance(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	job, err := c.Submit(0, 1, chainJob(t, 3, 5), 100)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != AcceptedLocal {
		t.Fatalf("outcome = %v (stage %q), want accepted-local", job.Outcome, job.RejectStage)
	}
	if !job.MetDeadline() {
		t.Fatalf("job did not complete on time: done=%v at %v, deadline %v",
			job.Done, job.CompletedAt, job.AbsDeadline)
	}
	// A fully local job exchanges no protocol messages at all.
	if got := c.Stats().Messages(); got != 0 {
		t.Fatalf("local job sent %d messages", got)
	}
}

func TestDistributedAcceptance(t *testing.T) {
	// Two independent 10-unit tasks with deadline 16: serial execution needs
	// 20 > 16, so the local test fails; two sites in parallel fit easily.
	c := mustCluster(t, fastLine(3), DefaultConfig())
	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome = %v (stage %q), want accepted-distributed", job.Outcome, job.RejectStage)
	}
	if job.NumProcs != 2 {
		t.Fatalf("|U| = %d, want 2", job.NumProcs)
	}
	if job.ACSSize < 2 {
		t.Fatalf("ACS size %d, want >= 2", job.ACSSize)
	}
	if !job.MetDeadline() {
		t.Fatalf("distributed job missed deadline: done=%v at %v (deadline %v)",
			job.Done, job.CompletedAt, job.AbsDeadline)
	}
	kinds := c.Stats().ByKind()
	for _, k := range []string{"rtds.enroll", "rtds.enroll-ack", "rtds.validate",
		"rtds.validate-ack", "rtds.commit", "rtds.commit-ack", "rtds.done"} {
		if kinds[k] == 0 {
			t.Errorf("no %s messages observed: %v", k, kinds)
		}
	}
}

func TestImpossibleDeadlineRejected(t *testing.T) {
	// Critical path 30 but deadline 5: even at full speed nothing fits.
	c := mustCluster(t, fastLine(3), DefaultConfig())
	job, err := c.Submit(0, 1, chainJob(t, 3, 10), 5)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != Rejected {
		t.Fatalf("outcome = %v, want rejected", job.Outcome)
	}
	if job.RejectStage != StageMapper {
		t.Fatalf("stage = %q, want %q", job.RejectStage, StageMapper)
	}
}

func TestLocalOnlyBaseline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalOnly = true
	c := mustCluster(t, fastLine(3), cfg)
	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != Rejected || job.RejectStage != StageLocalOnly {
		t.Fatalf("outcome = %v stage %q, want rejected/local-only", job.Outcome, job.RejectStage)
	}
	if got := c.Stats().Messages(); got != 0 {
		t.Fatalf("local-only cluster sent %d messages", got)
	}
}

func TestRadiusZeroNoSphere(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Radius = 0
	c := mustCluster(t, fastLine(3), cfg)
	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != Rejected || job.RejectStage != StageNoSphere {
		t.Fatalf("outcome = %v stage %q, want rejected/no-sphere", job.Outcome, job.RejectStage)
	}
}

func TestSphereScopesEnrollment(t *testing.T) {
	// On a 9-site line with h=2, an initiator in the middle should enroll at
	// most 4 members — never the whole network.
	cfg := DefaultConfig()
	cfg.Radius = 2
	c := mustCluster(t, fastLine(9), cfg)
	if got := len(c.SiteSphere(4)); got != 4 {
		t.Fatalf("sphere of middle site has %d members, want 4", got)
	}
	if got := len(c.SiteSphere(0)); got != 2 {
		t.Fatalf("sphere of edge site has %d members, want 2", got)
	}
	job, err := c.Submit(0, 4, parJob(t, 3, 10), 22)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if !job.Accepted() {
		t.Fatalf("job not accepted: %v/%s", job.Outcome, job.RejectStage)
	}
	if job.ACSSize > 5 {
		t.Fatalf("ACS size %d exceeds sphere+self", job.ACSSize)
	}
}

func TestLockingDefersSecondJob(t *testing.T) {
	// Two distributed-needing jobs hit the same initiator back to back. The
	// second must wait for the first transaction's locks, and both must be
	// decided by the end.
	c := mustCluster(t, fastLine(3), DefaultConfig())
	j1, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(0.01, 0, parJob(t, 2, 10), 40)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if j1.Outcome == Pending || j2.Outcome == Pending {
		t.Fatalf("undecided jobs: %v %v", j1.Outcome, j2.Outcome)
	}
	if !j1.Accepted() {
		t.Fatalf("first job rejected: %s", j1.RejectStage)
	}
	// The second job was deferred during j1's transaction, so its decision
	// must come later than its arrival by at least the deferral.
	if j2.Accepted() && j2.DecisionAt < j1.DecisionAt {
		t.Fatalf("second job decided (%v) before first (%v) despite lock",
			j2.DecisionAt, j1.DecisionAt)
	}
}

func TestConcurrentInitiatorsDisjointSpheres(t *testing.T) {
	// Sites 0 and 8 on a 9-line with h=1: spheres {1} and {7} — fully
	// disjoint transactions run concurrently.
	cfg := DefaultConfig()
	cfg.Radius = 1
	c := mustCluster(t, fastLine(9), cfg)
	j1, _ := c.Submit(0, 0, parJob(t, 2, 10), 16)
	j2, _ := c.Submit(0, 8, parJob(t, 2, 10), 16)
	runAll(t, c)
	if !j1.Accepted() || !j2.Accepted() {
		t.Fatalf("outcomes %v/%s and %v/%s, want both accepted",
			j1.Outcome, j1.RejectStage, j2.Outcome, j2.RejectStage)
	}
}

func TestConcurrentInitiatorsOverlappingSpheres(t *testing.T) {
	// Both endpoints of a 3-line want the middle site at once; locking must
	// serialize, and every job must still be decided.
	c := mustCluster(t, fastLine(3), DefaultConfig())
	j1, _ := c.Submit(0, 0, parJob(t, 2, 10), 30)
	j2, _ := c.Submit(0.001, 2, parJob(t, 2, 10), 30)
	runAll(t, c)
	if j1.Outcome == Pending || j2.Outcome == Pending {
		t.Fatal("a job was never decided")
	}
	if !j1.Accepted() {
		t.Fatalf("first job: %v/%s", j1.Outcome, j1.RejectStage)
	}
}

func TestPreemptiveMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Preemptive = true
	c := mustCluster(t, fastLine(3), cfg)
	j1, _ := c.Submit(0, 1, chainJob(t, 2, 5), 100)
	j2, _ := c.Submit(0, 0, parJob(t, 2, 10), 16)
	runAll(t, c)
	if !j1.Accepted() || !j2.Accepted() {
		t.Fatalf("outcomes %v/%s and %v/%s", j1.Outcome, j1.RejectStage, j2.Outcome, j2.RejectStage)
	}
	if !j1.MetDeadline() || !j2.MetDeadline() {
		t.Fatal("preemptive jobs missed deadlines")
	}
}

func TestUniformMachines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Powers = []float64{1, 4, 1} // site 1 is 4x faster
	c := mustCluster(t, fastLine(3), cfg)
	// 12-unit chain with deadline 5 can only run on the fast site (12/4 = 3).
	job, _ := c.Submit(0, 1, chainJob(t, 1, 12), 5)
	runAll(t, c)
	if job.Outcome != AcceptedLocal {
		t.Fatalf("outcome %v/%s, want accepted-local on fast site", job.Outcome, job.RejectStage)
	}
}

func TestSurplusReflectsLoad(t *testing.T) {
	c := mustCluster(t, fastLine(2), DefaultConfig())
	s := c.sites[0]
	if got := s.plan.Surplus(c.tr.Now(), 100); got != 1 {
		t.Fatalf("idle surplus %v, want 1", got)
	}
	job, _ := c.Submit(0, 0, chainJob(t, 1, 50), 200)
	runAll(t, c)
	if !job.Accepted() {
		t.Fatal("load job rejected")
	}
	// Re-query surplus right after epoch: one 50-unit task in a 100 window.
	got := s.plan.Surplus(job.Arrival, 100)
	if got > 0.55 || got < 0.45 {
		t.Fatalf("loaded surplus %v, want ~0.5", got)
	}
}

func TestBootstrapCostScalesWithRadius(t *testing.T) {
	topo := fastLine(9)
	var prev int64
	for _, h := range []int{1, 2, 3} {
		cfg := DefaultConfig()
		cfg.Radius = h
		c := mustCluster(t, topo, cfg)
		msgs, bytes := c.BootstrapCost()
		want := int64((2*h - 1) * 2 * topo.NumEdges())
		if msgs != want {
			t.Fatalf("h=%d: bootstrap messages %d, want %d", h, msgs, want)
		}
		if bytes <= prev {
			t.Fatalf("h=%d: bootstrap bytes %d did not grow (prev %d)", h, bytes, prev)
		}
		prev = bytes
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Summary, []string) {
		c := mustCluster(t, graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 7), DefaultConfig())
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 30; i++ {
			g, err := daggen.Generate(daggen.AllKinds[i%len(daggen.AllKinds)], 6,
				daggen.Params{MinComplexity: 1, MaxComplexity: 4}, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			origin := graph.NodeID(rng.Intn(12))
			at := rng.Float64() * 100
			dl := g.CriticalPathLength() * (1.5 + rng.Float64()*2)
			if _, err := c.Submit(at, origin, g, dl); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var outcomes []string
		for _, j := range c.Jobs() {
			outcomes = append(outcomes, j.ID+":"+j.Outcome.String()+":"+string(j.RejectStage))
		}
		return c.Summarize(), outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1.String() != s2.String() {
		t.Fatalf("summaries differ:\n%s\n%s", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d differs: %s vs %s", i, o1[i], o2[i])
		}
	}
}

// TestStressRandomWorkload is the big soak: random topologies, mixed DAG
// shapes, varied deadline tightness. Invariants: every job decided, no
// causality violations, accepted jobs complete on time, all locks released.
func TestStressRandomWorkload(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		topo := graph.RandomConnected(n, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, seed)
		cfg := DefaultConfig()
		cfg.Radius = 1 + rng.Intn(3)
		cfg.Preemptive = seed%2 == 1
		c := mustCluster(t, topo, cfg)
		for i := 0; i < 40; i++ {
			kind := daggen.AllKinds[rng.Intn(len(daggen.AllKinds))]
			g, err := daggen.Generate(kind, 3+rng.Intn(10),
				daggen.Params{MinComplexity: 0.5, MaxComplexity: 5}, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			dl := g.CriticalPathLength() * (1.0 + rng.Float64()*4)
			if _, err := c.Submit(rng.Float64()*300, graph.NodeID(rng.Intn(n)), g, dl); err != nil {
				t.Fatal(err)
			}
		}
		runAll(t, c)
		sum := c.Summarize()
		if sum.Submitted != 40 {
			t.Fatalf("seed %d: %d jobs recorded", seed, sum.Submitted)
		}
		for _, j := range c.Jobs() {
			if j.Outcome == Pending {
				t.Fatalf("seed %d: job %s undecided", seed, j.ID)
			}
			if j.Accepted() && !j.MetDeadline() {
				t.Fatalf("seed %d: accepted job %s missed its deadline (done=%v at %v, d=%v)",
					seed, j.ID, j.Done, j.CompletedAt, j.AbsDeadline)
			}
		}
		// Structural cross-check used by the independent oracle
		// (internal/verify runs the full Check; avoid the import cycle here
		// by asserting the execution records directly): every accepted
		// job's tasks executed exactly once, inside the job window.
		counts := make(map[string]int)
		for _, te := range c.Executions() {
			counts[te.Job.ID]++
			if te.Start < te.Job.Arrival-1e-6 || te.End > te.Job.AbsDeadline+1e-6 {
				t.Fatalf("seed %d: execution %v outside job window", seed, te)
			}
		}
		for _, j := range c.Jobs() {
			want := 0
			if j.Accepted() {
				want = j.Graph.Len()
			}
			if counts[j.ID] != want {
				t.Fatalf("seed %d: job %s has %d executions, want %d", seed, j.ID, counts[j.ID], want)
			}
		}
	}
}

func TestSummaryString(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	c.Submit(0, 1, chainJob(t, 3, 5), 100)
	runAll(t, c)
	s := c.Summarize()
	if s.Submitted != 1 || s.AcceptedLocal != 1 || s.GuaranteeRatio != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func BenchmarkClusterThroughput(b *testing.B) {
	topo := graph.RandomConnected(16, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 1)
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(topo, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 50; j++ {
			g := daggen.Layered(4, 3, 0.2, daggen.Params{MinComplexity: 1, MaxComplexity: 4}, int64(j))
			dl := g.CriticalPathLength() * 2.5
			if _, err := c.Submit(rng.Float64()*200, graph.NodeID(rng.Intn(16)), g, dl); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
