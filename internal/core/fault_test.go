package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core/membership"
	"repro/internal/core/txn"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// ring5 is a 5-cycle: every pair of sites has two disjoint paths, so a dead
// site can be routed around.
func ring5() *graph.Graph {
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%5), 0.05)
	}
	return g
}

// TestEnrollTimeoutTieRace forces the enrollment expiry timer and the final
// EnrollAck onto the same instant, in both orders, and requires that the
// enrollment window closes exactly once either way (regression for the
// double-enrollDone race: the ack path must cancel the timer and both paths
// must guard on the phase).
//
// On fastLine(4) the farthest member's ack round trip is exactly
// 2*sphereDiam: with EnrollSlack=0 the timer (scheduled first, hence lower
// sequence number) wins the tie and the straggler ack hits a post-enrollment
// transaction; with a positive slack the ack wins and the cancelled timer
// must stay silent.
func TestEnrollTimeoutTieRace(t *testing.T) {
	for _, slack := range []float64{0, 1e-3} {
		t.Run(fmt.Sprintf("slack=%v", slack), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.EnrollSlack = slack
			cfg.TraceEvents = true
			c := mustCluster(t, fastLine(4), cfg)
			job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
			if err != nil {
				t.Fatal(err)
			}
			runAll(t, c) // asserts no violations, all idle (so site 3 is unlocked)
			if job.Outcome == Pending {
				t.Fatal("job never decided")
			}
			acsFixed, decided := 0, 0
			for _, e := range c.JobEvents(job.ID) {
				switch e.Kind {
				case EvACSFixed:
					acsFixed++
				case EvDecided:
					decided++
				}
			}
			if acsFixed != 1 {
				t.Fatalf("enrollment window closed %d times, want exactly 1", acsFixed)
			}
			if decided != 1 {
				t.Fatalf("job decided %d times, want exactly 1", decided)
			}
		})
	}
}

// TestSurplusOrderingBelowClampFloor: the clamp that keeps surpluses inside
// the mapper's (0, 1] domain must not erase the §9 ranking among saturated
// sites — ordering follows the true surplus even below the floor.
func TestSurplusOrderingBelowClampFloor(t *testing.T) {
	c := mustCluster(t, fastLine(4), DefaultConfig())
	s := c.sites[0]
	tx := &activeTxn{Txn: txn.New("x", []graph.NodeID{1, 2, 3}), job: &Job{ID: "x", AbsDeadline: 100}}
	tx.RecordEnrollment(1, txn.Enrollment{Surplus: 1e-5, Power: 1})
	tx.RecordEnrollment(2, txn.Enrollment{Surplus: 8e-4, Power: 1})
	tx.RecordEnrollment(3, txn.Enrollment{Surplus: 1e-6, Power: 1})
	tx.FixACS()
	procs := s.acsProcs(tx)
	var order []graph.NodeID
	for _, p := range procs {
		order = append(order, p.Site)
	}
	// Initiator is idle (surplus 1); the members rank by raw surplus
	// 8e-4 > 1e-5 > 1e-6 even though all three clamp to the same floor.
	want := []graph.NodeID{0, 2, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("proc order %v, want %v (raw-surplus tie-break lost)", order, want)
		}
	}
	for _, p := range procs[1:] {
		if p.Surplus != 1e-3 {
			t.Fatalf("member surplus %v escaped the clamp floor", p.Surplus)
		}
	}
	if clampSurplus(2) != 1 {
		t.Fatal("clamp ceiling broken")
	}
	if clampSurplus(-5) != 1e-3 {
		t.Fatal("clamp floor broken")
	}
}

// TestLossyClusterTerminatesWithoutLeaks is the acceptance scenario: a
// 32-site cluster under a 10% message-loss (plus jitter) fault plan must
// decide every job, release every lock, keep no reservation of any rejected
// job anywhere, and behave identically when re-run with the same seed.
func TestLossyClusterTerminatesWithoutLeaks(t *testing.T) {
	run := func() (*Cluster, Summary) {
		cfg := DefaultConfig()
		cfg.Faults = &simnet.FaultPlan{Seed: 99, Loss: 0.1, MaxJitter: 0.05}
		topo := graph.RandomConnected(32, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, 7)
		c := mustCluster(t, topo, cfg)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 150; i++ {
			at := rng.Float64() * 60
			origin := graph.NodeID(rng.Intn(32))
			width := 2 + rng.Intn(3)         // 2-4 parallel tasks
			deadline := 12 + rng.Float64()*8 // serial needs 16-32: most must distribute
			if _, err := c.Submit(at, origin, parJob(t, width, 8), deadline); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatalf("run did not terminate cleanly: %v", err)
		}
		return c, c.Summarize()
	}

	c, sum := run()
	if !c.AllIdle() {
		t.Fatal("wedged locks or open transactions after drain")
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("genuine violations leaked through fault accounting: %v", v)
	}
	if sum.Undecided != 0 {
		t.Fatalf("%d jobs never decided", sum.Undecided)
	}
	if sum.Dropped == 0 {
		t.Fatal("fault plan injected no loss — test is vacuous")
	}
	if sum.Rejected == 0 {
		t.Fatal("no rejections under 10% loss — test is vacuous")
	}
	// No site may retain reservations of a rejected job.
	outcome := make(map[string]Outcome)
	for _, j := range c.Jobs() {
		outcome[j.ID] = j.Outcome
	}
	for id := 0; id < 32; id++ {
		for _, r := range c.SitePlanReservations(graph.NodeID(id)) {
			res := fmt.Sprintf("%v", r)
			for jobID, o := range outcome {
				if o == Rejected && containsJob(res, jobID) {
					t.Fatalf("site %d retains reservation of rejected job %s: %v", id, jobID, r)
				}
			}
		}
	}

	// Byte-identical repeat: the fault plan is seeded and the DES is
	// deterministic, so the whole faulty run must reproduce.
	_, sum2 := run()
	if fmt.Sprintf("%v", sum) != fmt.Sprintf("%v", sum2) {
		t.Fatalf("same seed diverged:\n%v\n%v", sum, sum2)
	}
}

// containsJob matches a reservation rendering against a job ID exactly
// (job IDs like j1@2 and j11@2 share prefixes, so substring is not enough).
func containsJob(res, jobID string) bool {
	return len(res) > 0 && (res == jobID ||
		// Reservation renders as {jN@M task start end}; the job ID is the
		// first space-delimited field after the brace.
		len(res) > len(jobID)+1 && res[1:len(jobID)+1] == jobID && res[len(jobID)+1] == ' ')
}

// TestCrashedInitiatorLeaseUnlocksMembers: the initiator dies right after
// its enrollment requests went out; its members' acks are lost against the
// dead site and so are the eventual unlocks. Without the lock lease both
// members would stay locked forever (the seed's silent-hang failure mode);
// with it the cluster drains, every site unlocks and no residue survives.
func TestCrashedInitiatorLeaseUnlocksMembers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &simnet.FaultPlan{
		Crashes: []simnet.Crash{{Site: 0, At: 0.06}}, // permanent, mid-enrollment
	}
	cfg.TraceEvents = true
	c := mustCluster(t, fastLine(3), cfg)
	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.AllIdle() {
		t.Fatal("members stayed locked: lock lease never fired")
	}
	if job.Outcome != Rejected || job.RejectStage != StageEmptyACS {
		t.Fatalf("job outcome %v/%s, want rejected/%s (all acks lost)",
			job.Outcome, job.RejectStage, StageEmptyACS)
	}
	for id := 0; id < 3; id++ {
		if res := c.SitePlanReservations(graph.NodeID(id)); len(res) != 0 {
			t.Fatalf("site %d retains reservations %v after aborted enrollment", id, res)
		}
	}
	leases := 0
	for _, e := range c.Events() {
		if e.Kind == EvLeaseExpired {
			leases++
		}
	}
	if leases != 2 {
		t.Fatalf("%d lease expiries, want 2 (both enrolled members)", leases)
	}
}

// TestCrashedSiteRoutedAround: after a permanent crash is detected, the
// survivors repair their routing tables and later jobs enroll and route
// around the dead site.
func TestCrashedSiteRoutedAround(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 1, At: 5}}}
	cfg.Membership = membership.Config{Enabled: true, SuspectAfter: 1, HeartbeatEvery: 1.0 / 3}
	c := mustCluster(t, ring5(), cfg)
	// Before the repair the sphere of site 0 includes its neighbor 1.
	preSphere := c.SiteSphere(0)
	found := false
	for _, m := range preSphere {
		if m == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pre-crash sphere of site 0 misses neighbor 1: %v", preSphere)
	}
	// Submitted well after detection (t=5+1): must be served by the repaired
	// topology.
	job, err := c.Submit(10, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.AllIdle() {
		t.Fatal("cluster not idle after drain")
	}
	for _, m := range c.SiteSphere(0) {
		if m == 1 {
			t.Fatalf("dead site 1 still in site 0's sphere: %v", c.SiteSphere(0))
		}
	}
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("post-repair job outcome %v/%s, want accepted-distributed via the surviving arc",
			job.Outcome, job.RejectStage)
	}
	if !job.MetDeadline() {
		t.Fatal("post-repair job missed its deadline")
	}
}

// TestFaultsOffByDefault: a nil (or empty) fault plan leaves the faultless
// paper model untouched — no leases, no retransmissions, no drops.
func TestFaultsOffByDefault(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	if c.faultsOn() {
		t.Fatal("faults on without a plan")
	}
	cfg := DefaultConfig()
	cfg.Faults = &simnet.FaultPlan{} // present but inert
	c2 := mustCluster(t, fastLine(3), cfg)
	if c2.faultsOn() {
		t.Fatal("empty plan armed the fault machinery")
	}
	job, _ := c2.Submit(0, 0, parJob(t, 2, 10), 16)
	runAll(t, c2)
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome %v, want accepted-distributed", job.Outcome)
	}
	if d := c2.Stats().Dropped(); d != 0 {
		t.Fatalf("%d drops on a faultless cluster", d)
	}
}
