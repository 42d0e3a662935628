package core

import (
	"strings"
	"testing"

	"repro/internal/core/membership"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// TestMembershipOffByDefault: the faultless paper model carries no
// membership machinery and no control traffic.
func TestMembershipOffByDefault(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	if c.membershipOn() || c.resilient() {
		t.Fatal("membership armed without a crash plan or explicit config")
	}
	for _, s := range c.sites {
		if s.member != nil {
			t.Fatalf("site %d has a membership manager on a faultless cluster", s.id)
		}
	}
	job, _ := c.Submit(0, 0, parJob(t, 2, 10), 16)
	runAll(t, c)
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("outcome %v", job.Outcome)
	}
	if sum := c.Summarize(); sum.ControlMessages != 0 {
		t.Fatalf("%d control messages on a membership-less cluster", sum.ControlMessages)
	}
}

// TestMembershipRequiresHorizonOnDES: heartbeats without a horizon would
// keep the event queue alive forever, so the DES constructor refuses.
func TestMembershipRequiresHorizonOnDES(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Membership = membership.Config{Enabled: true}
	if _, err := NewCluster(fastLine(3), cfg); err == nil {
		t.Fatal("DES cluster accepted membership without a horizon")
	}
	cfg.Membership.Horizon = 50
	if _, err := NewCluster(fastLine(3), cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRejoinResurrects: a temporary fail-silent window is detected by
// the heartbeat layer, the victim is routed around, and once its beacons
// resume every site resurrects it at a fresh incarnation — after which a
// job enrolls it again. Nothing scripts the detection; all of this flows
// through the wire protocol.
func TestCrashRejoinResurrects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceEvents = true
	cfg.Faults = &simnet.FaultPlan{
		Crashes: []simnet.Crash{{Site: 1, At: 5, For: 10}}, // recovers at 15
	}
	c := mustCluster(t, ring5(), cfg)
	if !c.membershipOn() {
		t.Fatal("crash plan did not auto-enable membership")
	}
	// Submitted well after recovery and resurrection: must be served by the
	// healed topology, with site 1 enrollable again.
	job, err := c.Submit(25, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Idle() {
		t.Fatal("cluster not idle after drain")
	}
	if job.Outcome != AcceptedDistributed {
		t.Fatalf("post-recovery job outcome %v/%s, want accepted-distributed", job.Outcome, job.RejectStage)
	}
	found := false
	for _, m := range c.SiteSphere(0) {
		if m == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered site 1 missing from site 0's sphere: %v", c.SiteSphere(0))
	}
	snaps := c.MembershipSnapshots()
	if len(snaps) != 5 {
		t.Fatalf("%d membership snapshots, want 5", len(snaps))
	}
	resurrections := 0
	for _, s := range snaps {
		if s.Epoch != snaps[0].Epoch {
			t.Fatalf("views diverged: site %d at epoch %d, site %d at %d",
				s.Self, s.Epoch, snaps[0].Self, snaps[0].Epoch)
		}
		for _, st := range s.Sites {
			if st.Dead {
				t.Fatalf("site %d still believes %d dead after recovery", s.Self, st.Site)
			}
		}
		resurrections += s.Resurrections
	}
	if resurrections == 0 {
		t.Fatal("no resurrection applied anywhere despite the recovery")
	}
	if sum := c.Summarize(); sum.ControlMessages == 0 {
		t.Fatal("membership ran without any accounted control traffic")
	}
}

// TestRepairDefersEnrollment: a job that needs distribution while a route
// repair is settling is deferred until the flood quiesces, then decided
// against the repaired sphere.
func TestRepairDefersEnrollment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceEvents = true
	cfg.Membership = membership.Config{
		Enabled: true, HeartbeatEvery: 1, SuspectAfter: 3, Horizon: 40,
	}
	cfg.Faults = &simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 1, At: 2}}}
	c := mustCluster(t, ring5(), cfg)
	// Site 1 goes permanently silent at t=2; its last beacon leaves at the
	// t=2 tick but is dropped. Site 0 declares it dead at the t=5 tick
	// (silence > 3) and the repair settles about a unit after the flood
	// quiesces — so a distribution-needing job arriving at 5.5 lands in
	// the settling window and must be deferred, not enrolled against the
	// half-repaired table.
	job, err := c.Submit(5.5, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Idle() {
		t.Fatal("cluster not idle after drain")
	}
	if job.Outcome == Pending {
		t.Fatal("deferred job never decided")
	}
	deferred := false
	for _, e := range c.JobEvents(job.ID) {
		if e.Kind == EvDeferred && strings.Contains(e.String(), "repair") {
			deferred = true
		}
	}
	if !deferred {
		t.Fatalf("job was not deferred by the settling repair; events: %v", c.JobEvents(job.ID))
	}
	if job.Accepted() {
		// Whatever the outcome, the ACS must not contain the dead site.
		for _, te := range c.Executions() {
			if te.JobID == job.ID && te.Site == 1 {
				t.Fatal("deferred job executed on the dead site")
			}
		}
	}
	settleSeen := false
	for _, e := range c.Events() {
		if e.Kind == EvRepairSettled {
			settleSeen = true
		}
	}
	if !settleSeen {
		t.Fatal("no repair-settled event recorded")
	}
}

// TestRelayWithoutTableDrops: a site that has no routing table yet — a
// joiner whose JoinAck has not arrived while its neighbors already route
// through it — drops a routed message for another site as unroutable
// instead of crashing.
func TestRelayWithoutTableDrops(t *testing.T) {
	c := mustCluster(t, graph.Line(3, graph.UnitDelay, 1), DefaultConfig())
	relay := c.sites[1]
	relay.table = nil
	relay.handle(0, NewRouted(0, 2, 4, UnlockAck{Job: "nobody", Member: 0}))
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := `site 1 has no route to 2 for "rtds.unlock-ack"`
	if v := c.Violations(); len(v) != 1 || v[0] != want {
		t.Fatalf("violations %q, want [%q]", v, want)
	}
}
