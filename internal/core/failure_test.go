package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// slowLine builds a line whose link delays are comparable to task durations,
// so protocol latency genuinely competes with the deadline.
func slowLine(n int, delay float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), delay)
	}
	return g
}

// TestCommitFailureAborts removes the §13 release padding so validated
// slots can lie in the past by the time the commit arrives: the affected
// member must refuse, the initiator must abort everywhere, and no residue
// may survive. This exercises StageCommit and the abort path end to end.
func TestCommitFailureAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReleasePadFactor = 0 // validated slots start "immediately"
	cfg.EnrollSlack = 0.001
	topo := slowLine(3, 2.0) // commit takes ~2 units to arrive
	c := mustCluster(t, topo, cfg)

	sawCommitStage := false
	for i := 0; i < 24; i++ {
		// Three 10-unit tasks: serial needs 30, so deadlines in [22, 29.5)
		// force three-way distribution; without padding the validated slots
		// (starting at each member's validation instant) are already stale
		// when the commit arrives one extra round trip later.
		at := c.Now() + 1
		job, err := c.Submit(at, 0, parJob(t, 3, 10), 22+float64(i)*0.3)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if job.Outcome == Pending {
			t.Fatalf("job %s undecided", job.ID)
		}
		if job.Outcome == Rejected && job.RejectStage == StageCommit {
			sawCommitStage = true
		}
		if job.Accepted() && !job.MetDeadline() {
			t.Fatalf("accepted job %s missed deadline", job.ID)
		}
	}
	if !sawCommitStage {
		t.Skip("no commit failure triggered under this timing; path covered elsewhere")
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations after aborts: %v", v)
	}
	if !c.Idle() {
		t.Fatal("stuck locks after aborts")
	}
	// No rejected job may leave reservations behind.
	for _, j := range c.Jobs() {
		if j.Accepted() {
			continue
		}
		for _, te := range c.Executions() {
			if te.JobID == j.ID {
				t.Fatalf("rejected job %s left execution %v", j.ID, te)
			}
		}
	}
}

// TestMatchingRejectionUnlocksEveryone drives many competing jobs onto a
// tiny saturated network so validation fails often; afterwards every site
// must be unlocked with no stranded tickets.
func TestMatchingRejectionUnlocksEveryone(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	// Saturate all three sites, then burst impossible parallel jobs while
	// they are busy; all submissions precede the single Run.
	var saturation []*Job
	for site := 0; site < 3; site++ {
		j, err := c.Submit(0, graph.NodeID(site), chainJob(t, 1, 90), 100)
		if err != nil {
			t.Fatal(err)
		}
		saturation = append(saturation, j)
	}
	var burst []*Job
	for i := 0; i < 10; i++ {
		j, err := c.Submit(5+float64(i), 1, parJob(t, 3, 30), 40)
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, j)
	}
	runAll(t, c) // asserts no violations + all idle
	for _, j := range saturation {
		if !j.Accepted() {
			t.Fatalf("saturation job %s rejected", j.ID)
		}
	}
	rejected := 0
	for _, j := range burst {
		if j.Outcome == Rejected {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("expected rejections on a saturated network")
	}
}

// TestDeferredJobEventuallyDecided: a job arriving while its site is locked
// by a remote initiator must be processed after the unlock.
func TestDeferredJobEventuallyDecided(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	// Job A from site 0 will enroll site 1 (and 2).
	jA, _ := c.Submit(0, 0, parJob(t, 2, 10), 16)
	// Job B arrives at site 1 while site 1 is locked for A's transaction.
	jB, _ := c.Submit(0.12, 1, chainJob(t, 1, 3), 50)
	runAll(t, c)
	if !jA.Accepted() {
		t.Fatalf("job A: %v/%s", jA.Outcome, jA.RejectStage)
	}
	if jB.Outcome != AcceptedLocal {
		t.Fatalf("deferred job B: %v/%s, want accepted-local", jB.Outcome, jB.RejectStage)
	}
	if jB.DecisionAt <= jB.Arrival {
		t.Fatalf("job B decided at %v, arrival %v — was it really deferred?", jB.DecisionAt, jB.Arrival)
	}
}

// TestLocalKnowledgeSharpensSelfEstimate (§13 "Local knowledge of k"): a
// site whose only commitment lies far beyond the job's deadline reports a
// pessimistic fixed-window surplus, so the mapper cannot use it and the job
// dies in case (i); measuring the initiator over the job window instead
// admits the job.
func TestLocalKnowledgeSharpensSelfEstimate(t *testing.T) {
	build := func(localKnowledge bool) *Job {
		cfg := DefaultConfig()
		cfg.UseLocalKnowledge = localKnowledge
		c := mustCluster(t, fastLine(2), cfg)
		// Reserve [100, 200] on the initiator: half of the 200-unit fixed
		// window, entirely outside the job's 18-unit window.
		tk, ok := c.sites[0].plan.Admit(0, []schedule.Request{{
			Job: "filler", Task: 1, Release: 100, Deadline: 200, Duration: 100,
		}})
		if !ok {
			t.Fatal("filler admit failed")
		}
		if err := c.sites[0].plan.Commit(tk); err != nil {
			t.Fatal(err)
		}
		// Two 10-unit tasks, deadline 18: the local test fails (serial 20),
		// so both sites must carry one task each — which requires trusting
		// the initiator's availability.
		job, err := c.Submit(0, 0, parJob(t, 2, 10), 18)
		if err != nil {
			t.Fatal(err)
		}
		runAll(t, c)
		return job
	}
	base := build(false)
	if base.Outcome != Rejected {
		t.Fatalf("fixed-window run: %v/%s, want rejected (self surplus 0.5 inflates durations)",
			base.Outcome, base.RejectStage)
	}
	sharp := build(true)
	if sharp.Outcome != AcceptedDistributed {
		t.Fatalf("local-knowledge run: %v/%s, want accepted-distributed",
			sharp.Outcome, sharp.RejectStage)
	}
	if !sharp.MetDeadline() {
		t.Fatal("local-knowledge job missed its deadline")
	}
}

// TestLocalKnowledgeWindowedSurplus pins the surplus numbers directly.
func TestLocalKnowledgeWindowedSurplus(t *testing.T) {
	cfg := DefaultConfig()
	c := mustCluster(t, fastLine(2), cfg)
	s := c.sites[0]
	// Reserve [100, 200] on site 0: inside the 200-unit fixed window but
	// outside a 50-unit job window.
	tk, ok := s.plan.Admit(0, []schedule.Request{{
		Job: "filler", Task: 1, Release: 100, Deadline: 200, Duration: 100,
	}})
	if !ok {
		t.Fatal("filler admit failed")
	}
	if err := s.plan.Commit(tk); err != nil {
		t.Fatal(err)
	}
	fixed := s.plan.Surplus(0, SurplusWindow)
	windowed := s.plan.Surplus(0, 50)
	if fixed > 0.55 {
		t.Fatalf("fixed-window surplus %v, want ~0.5", fixed)
	}
	if windowed != 1 {
		t.Fatalf("job-window surplus %v, want 1 (reservation lies beyond)", windowed)
	}
}

// TestEventTimeline: with tracing on, a distributed job leaves a complete,
// ordered lifecycle trail.
func TestEventTimeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceEvents = true
	c := mustCluster(t, fastLine(3), cfg)
	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome %v", job.Outcome)
	}
	events := c.JobEvents(job.ID)
	wantOrder := []EventKind{EvArrival, EvEnroll, EvACSFixed, EvMapped,
		EvValidated, EvCommit, EvDecided, EvTaskDone, EvJobDone}
	pos := 0
	for _, e := range events {
		if pos < len(wantOrder) && e.Kind == wantOrder[pos] {
			pos++
		}
	}
	if pos != len(wantOrder) {
		var got []string
		for _, e := range events {
			got = append(got, string(e.Kind))
		}
		t.Fatalf("lifecycle incomplete: matched %d/%d of %v in %v",
			pos, len(wantOrder), wantOrder, got)
	}
	// Chronological order and non-empty rendering.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events out of order")
		}
	}
	if events[0].String() == "" {
		t.Fatal("empty event rendering")
	}
}

// TestEventsOffByDefault: untraced, the log keeps exactly one EvDecided
// per job and no other kind (a clean run records no anomaly). The jobs are
// a distributed accept, a deferred local accept, an empty-ACS reject and a
// plain local accept.
func TestEventsOffByDefault(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	for _, sub := range []struct {
		at     float64
		origin graph.NodeID
		g      *dag.Graph
		rel    float64
	}{
		{0, 0, parJob(t, 2, 10), 16},
		{0.01, 0, parJob(t, 2, 10), 40},
		{0.02, 2, chainJob(t, 3, 30), 20},
		{0.03, 1, chainJob(t, 2, 1), 50},
	} {
		if _, err := c.Submit(sub.at, sub.origin, sub.g, sub.rel); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, c)
	decided := make(map[string]int)
	for _, e := range c.Events() {
		if e.Kind != EvDecided {
			t.Fatalf("untraced log holds %v", e)
		}
		decided[e.Job]++
	}
	for _, j := range c.Jobs() {
		if decided[j.ID] != 1 {
			t.Fatalf("job %s decided %d times in the log, want 1", j.ID, decided[j.ID])
		}
	}
	if len(decided) != 4 {
		t.Fatalf("log names %d jobs, want 4", len(decided))
	}
}
