package rtds_test

import (
	"slices"
	"testing"
	"time"

	rtds "repro"
)

// paperJob is the Fig. 2 DAG built through the public facade.
func paperJob() *rtds.DAG {
	return rtds.NewJob("fig2").
		Task(1, 6).Task(2, 4).Task(3, 4).Task(4, 2).Task(5, 5).
		Edge(1, 3).Edge(2, 3).Edge(1, 4).Edge(3, 5).Edge(4, 5).
		MustBuild()
}

func TestFacadeQuickstart(t *testing.T) {
	topo := rtds.NewRandomNetwork(8, 3, 42)
	cluster, err := rtds.NewCluster(topo, rtds.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	job, err := cluster.Submit(0, 0, paperJob(), 66)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	if !job.Accepted() {
		t.Fatalf("quickstart job rejected: %v/%s", job.Outcome, job.RejectStage)
	}
	if !job.MetDeadline() {
		t.Fatal("quickstart job missed its deadline")
	}
}

// TestFacadeRunUntil advances a cluster to a time in the middle of its only
// job: the job is decided but not done, and Run finishes it.
func TestFacadeRunUntil(t *testing.T) {
	cluster, err := rtds.NewCluster(rtds.NewRandomNetwork(8, 3, 42), rtds.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	job, err := cluster.Submit(5, 0, paperJob(), 66)
	if err != nil {
		t.Fatal(err)
	}
	if w := job.Window(); w != 66 {
		t.Fatalf("Window() = %v, want the relative deadline 66", w)
	}
	if err := cluster.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if !job.Accepted() || job.Done {
		t.Fatalf("at t=15: accepted=%v done=%v, want accepted and running", job.Accepted(), job.Done)
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	if !job.Done || !job.MetDeadline() {
		t.Fatalf("after Run: done=%v met=%v", job.Done, job.MetDeadline())
	}
}

// TestFacadeSchemeRegistry builds the hierarchical scheme by name through
// the public registry and runs jobs built with JobBuilder.Build on it:
// every job is decided, and not one message crosses a region boundary.
func TestFacadeSchemeRegistry(t *testing.T) {
	if names := rtds.SchemeNames(); !slices.IsSorted(names) || !slices.Contains(names, "rtds-hier") {
		t.Fatalf("SchemeNames() = %v, want a sorted list holding rtds-hier", names)
	}
	s, ok := rtds.GetScheme("rtds-hier")
	if !ok || s.Name() != "rtds-hier" || s.Description() == "" {
		t.Fatalf("GetScheme(rtds-hier) = %v, %v", s, ok)
	}
	if _, ok := rtds.GetScheme("no-such-scheme"); ok {
		t.Fatal("GetScheme found an unregistered scheme")
	}
	topo := rtds.NewRandomNetwork(64, 4, 9)
	if _, err := rtds.BuildScheme("no-such-scheme", topo, rtds.SchemeConfig{}); err == nil {
		t.Fatal("BuildScheme built an unregistered scheme")
	}
	if _, err := rtds.NewJob("cycle").Task(1, 1).Task(2, 1).Edge(1, 2).Edge(2, 1).Build(); err == nil {
		t.Fatal("Build accepted a cyclic job")
	}
	job, err := rtds.NewJob("pair").Task(1, 10).Task(2, 10).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := rtds.BuildScheme("rtds-hier", topo, rtds.SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 8
	for i := 0; i < jobs; i++ {
		if err := c.Submit(float64(i), rtds.NodeID(i*8), job, 16); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	res := c.Summarize()
	if res.Jobs != jobs || res.Core == nil {
		t.Fatalf("summary of %d jobs (core summary %v), want %d", res.Jobs, res.Core, jobs)
	}
	if res.Core.Undecided != 0 {
		t.Fatalf("%d jobs left undecided", res.Core.Undecided)
	}
	if res.Core.CrossRegionMessages != 0 {
		t.Fatalf("rtds-hier crossed region boundaries %d times", res.Core.CrossRegionMessages)
	}
}

func TestFacadeTopologyBuilders(t *testing.T) {
	delays := rtds.DelayRange{Min: 0.1, Max: 0.2}
	nets := []*rtds.Network{
		rtds.NewRingNetwork(6, delays, 1),
		rtds.NewGridNetwork(3, 3, delays, 1),
		rtds.NewTreeNetwork(7, delays, 1),
		rtds.NewRandomNetwork(10, 3, 1),
	}
	for i, n := range nets {
		if !n.Connected() {
			t.Errorf("network %d disconnected", i)
		}
	}
	manual := rtds.NewNetwork(3)
	if err := manual.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := manual.AddEdge(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if !manual.Connected() {
		t.Error("manual network disconnected")
	}
}

func TestFacadeWorkload(t *testing.T) {
	topo := rtds.NewRandomNetwork(8, 3, 7)
	cluster, err := rtds.NewCluster(topo, rtds.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := rtds.GenerateWorkload(rtds.Workload{
		Sites:       8,
		Horizon:     100,
		RatePerSite: 0.05,
		TaskSize:    5,
		Tightness:   3,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rtds.SubmitAll(cluster, arrivals); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	sum := cluster.Summarize()
	if sum.Submitted != len(arrivals) {
		t.Fatalf("summary covers %d jobs, submitted %d", sum.Submitted, len(arrivals))
	}
	for _, j := range cluster.Jobs() {
		if j.Outcome == rtds.Pending {
			t.Fatalf("job %s undecided", j.ID)
		}
	}
}

func TestFacadeLiveCluster(t *testing.T) {
	topo := rtds.NewNetwork(3)
	topo.MustAddEdge(0, 1, 0.05)
	topo.MustAddEdge(1, 2, 0.05)
	cfg := rtds.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	live, err := rtds.NewLiveCluster(topo, cfg, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	job, err := live.Submit(0, 1, paperJob(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if !live.Wait(30 * time.Second) {
		t.Fatal("live cluster did not quiesce")
	}
	if !job.Accepted() {
		t.Fatalf("live job rejected: %v/%s", job.Outcome, job.RejectStage)
	}
}

// TestFacadeFaultPlan drives a faulty cluster entirely through the facade:
// the plan types are re-exported, the run terminates and the drop counter
// reflects the injected loss.
func TestFacadeFaultPlan(t *testing.T) {
	topo := rtds.NewNetwork(4)
	for i := 0; i < 3; i++ {
		topo.MustAddEdge(rtds.NodeID(i), rtds.NodeID(i+1), 0.05)
	}
	cfg := rtds.DefaultConfig()
	cfg.Faults = &rtds.FaultPlan{Seed: 3, Loss: 0.5}
	c, err := rtds.NewCluster(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := rtds.NewJob("par").Task(1, 10).Task(2, 10).MustBuild()
	job, err := c.Submit(0, 0, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if job.Outcome == rtds.Pending {
		t.Fatal("job never decided under 50% loss")
	}
	if c.Stats().Dropped() == 0 {
		t.Fatal("no traversal dropped at 50% loss")
	}
}
