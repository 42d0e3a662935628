package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core/policy"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/schedule"
)

// policyWorkload drives a cluster with a mixed workload that produces both
// local and distributed admissions, and returns the summary.
func policyWorkload(t *testing.T, cfg Config) Summary {
	t.Helper()
	topo := graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 42)
	c := mustCluster(t, topo, cfg)
	rng := rand.New(rand.NewSource(7))
	at := 0.0
	for i := 0; i < 40; i++ {
		at += rng.ExpFloat64() * 2
		g := chainJob(t, 2+rng.Intn(3), 2+3*rng.Float64())
		if _, err := c.Submit(at, graph.NodeID(rng.Intn(12)), g, g.CriticalPathLength()*2); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, c)
	return c.Summarize()
}

// TestDefaultPoliciesBitExact: a cluster with an explicitly spelled-out
// default policy set must replay the zero-Set run exactly — the contract
// that makes the policy layer a safe refactoring seam.
func TestDefaultPoliciesBitExact(t *testing.T) {
	implicit := policyWorkload(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Policies = policy.Set{
		Sphere:     policy.FullSphere{},
		Acceptance: policy.EDF{},
		Dispatch:   mapper.LaxityUniform,
		Mapper:     mapper.HeuristicCPEFT,
	}
	explicit := policyWorkload(t, cfg)
	if fmt.Sprintf("%v", implicit) != fmt.Sprintf("%v", explicit) {
		t.Fatalf("explicit defaults diverged from the zero Set:\n%v\n%v", implicit, explicit)
	}
}

// TestKRedundantCapsEnrollment: the k-redundant sphere policy bounds every
// transaction's ACS (k members + initiator) and with it the per-job message
// cost, while the protocol still decides every job cleanly.
func TestKRedundantCapsEnrollment(t *testing.T) {
	full := policyWorkload(t, DefaultConfig())

	cfg := DefaultConfig()
	cfg.Policies.Sphere = policy.KRedundant{K: 3}
	capped := policyWorkload(t, cfg)

	if capped.Submitted != full.Submitted || capped.Undecided != 0 {
		t.Fatalf("capped run incomplete: %v", capped)
	}
	if capped.MeanACSSize > 4+1e-9 {
		t.Fatalf("mean ACS %.2f exceeds k+1=4", capped.MeanACSSize)
	}
	if full.MeanACSSize <= 4 {
		t.Fatalf("control run's spheres too small (%.2f) for the cap to mean anything", full.MeanACSSize)
	}
	if capped.Messages >= full.Messages {
		t.Fatalf("k-redundant enrollment did not reduce traffic: %d vs %d messages",
			capped.Messages, full.Messages)
	}
}

// TestLaxityThresholdShiftsAdmissions: a strict laxity threshold refuses
// borderline local fits, so local admissions can only fall relative to EDF
// and distributed attempts can only grow; every job is still decided.
func TestLaxityThresholdShiftsAdmissions(t *testing.T) {
	edf := policyWorkload(t, DefaultConfig())

	cfg := DefaultConfig()
	cfg.Policies.Acceptance = policy.LaxityThreshold{Theta: 0.5}
	strict := policyWorkload(t, cfg)

	if strict.Undecided != 0 {
		t.Fatalf("threshold run left %d jobs undecided", strict.Undecided)
	}
	if strict.AcceptedLocal >= edf.AcceptedLocal {
		t.Fatalf("strict threshold did not reduce local admissions: %d vs %d",
			strict.AcceptedLocal, edf.AcceptedLocal)
	}
	distAttempts := strict.Submitted - strict.AcceptedLocal
	if distAttempts <= edf.Submitted-edf.AcceptedLocal {
		t.Fatalf("refused local fits did not go to distribution: %d vs %d attempts",
			distAttempts, edf.Submitted-edf.AcceptedLocal)
	}
}

// TestLocalKnowledgeWindowFloor: with UseLocalKnowledge the initiator
// measures its own surplus over the job's remaining window, unless that
// window is 1e-6 or less, where it falls back to SurplusWindow.
func TestLocalKnowledgeWindowFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseLocalKnowledge = true
	c, err := soloHost(cfg, nil) // its clock stands at 0, so a deadline is the window
	if err != nil {
		t.Fatal(err)
	}
	s := c.sites[0]
	if now := s.now(); now != 0 {
		t.Fatalf("site clock at %v, want 0", now)
	}
	// Book [0, 1]: over any window inside it the site is full.
	tk, ok := s.plan.Admit(0, []schedule.Request{{Job: "busy", Task: 1, Release: 0, Deadline: 1, Duration: 1}})
	if !ok || s.plan.Commit(tk) != nil {
		t.Fatal("could not book the site")
	}
	for _, tc := range []struct {
		window, want float64
	}{
		{1e-6, s.plan.Surplus(0, SurplusWindow)}, // at the floor: the fixed window
		{2e-6, clampSurplus(0)},                  // above it: the job's own, fully booked
	} {
		at := &activeTxn{job: &Job{AbsDeadline: tc.window}}
		if got := s.acsProcs(at)[0].Surplus; got != tc.want {
			t.Errorf("job window %v: initiator surplus %v, want %v", tc.window, got, tc.want)
		}
	}
}
