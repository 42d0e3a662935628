package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core/membership"
	"repro/internal/daggen"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// TestSummarizeMatchesWalk: the sites' tallies, added up, are the summary a
// walk over every job record, the log and the routing tables gives
// (walkSummary). Every field must be equal, the mean decision latency to
// 1e-12 relative (the tally adds the latencies site by site, the walk in
// submission order). The runs cover both kernels, both plans, flat and hier
// routing, a loss + jitter + crash plan, membership churn, and traced and
// untraced records.
func TestSummarizeMatchesWalk(t *testing.T) {
	churn := membership.Config{Enabled: true, HeartbeatEvery: 1, SuspectAfter: 3, Horizon: 140}
	cases := []struct {
		name  string
		topo  *graph.Graph
		setup func(*Config)
	}{
		{"flat", graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 7), func(*Config) {}},
		{"preemptive", graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 7), func(cfg *Config) {
			cfg.Preemptive = true
		}},
		{"hier", hierTopo(48, 9), func(cfg *Config) { cfg.Hier = true }},
		{"hier+churn", hierTopo(48, 9), func(cfg *Config) {
			cfg.Hier, cfg.Membership = true, churn
			cfg.Faults = &simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 4, At: 15, For: 25}, {Site: 30, At: 40}}}
		}},
		{"loss+jitter+crash", graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 7), func(cfg *Config) {
			cfg.Faults = &simnet.FaultPlan{Seed: 3, Loss: 0.03, MaxJitter: 0.05,
				Crashes: []simnet.Crash{{Site: 3, At: 20, For: 30}, {Site: 8, At: 60}}}
		}},
		{"churn", graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 7), func(cfg *Config) {
			cfg.Preemptive = true
			cfg.Membership = churn
			cfg.Faults = &simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 2, At: 15, For: 25}, {Site: 5, At: 50, For: 30}}}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 2} {
			for _, trace := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/trace=%v", tc.name, workers, trace), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.KernelWorkers, cfg.TraceEvents = workers, trace
					tc.setup(&cfg)
					c := mustCluster(t, tc.topo, cfg)
					submitRandom(t, c, 60, 5)
					if err := c.Run(); err != nil {
						t.Fatal(err)
					}
					got, want := c.Summarize(), c.walkSummary()
					if d := math.Abs(got.MeanDecisionLatency - want.MeanDecisionLatency); d > 1e-12*math.Abs(want.MeanDecisionLatency) {
						t.Errorf("mean decision latency %v, walk %v", got.MeanDecisionLatency, want.MeanDecisionLatency)
					}
					got.MeanDecisionLatency = want.MeanDecisionLatency
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("tallies and walk differ:\ntally %+v\nwalk  %+v", got, want)
					}
					if want.Submitted-want.Undecided == 0 || want.RoutingEntries == 0 {
						t.Fatalf("nothing was decided or no table was tallied: %+v", want)
					}
				})
			}
		}
	}
}

// submitRandom submits n seeded random DAG jobs over the first 100 time
// units at random origins.
func submitRandom(t *testing.T, c *Cluster, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		g, err := daggen.Generate(daggen.AllKinds[rng.Intn(len(daggen.AllKinds))], 3+rng.Intn(8),
			daggen.Params{MinComplexity: 0.5, MaxComplexity: 4}, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		dl := g.CriticalPathLength() * (1.2 + rng.Float64()*3)
		if _, err := c.Submit(rng.Float64()*100, graph.NodeID(rng.Intn(c.topo.Len())), g, dl); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompletionCountsInEitherOrder: an accepted job is counted on time or
// late once both its acceptance and its completion are recorded, whichever
// comes last, and only once.
func TestCompletionCountsInEitherOrder(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	g := parJob(t, 2, 1)
	var jobs []*Job
	for range 3 {
		job, err := c.Submit(0, 0, g, 16) // never Run: only the records below decide it
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	done := func(j *Job, at float64) {
		for _, id := range g.TaskIDs() {
			c.record(Event{Site: 0, job: j, Kind: EvTaskDone, Task: id, T: at})
		}
		c.record(Event{Site: 0, job: j, Kind: EvTaskDone, Task: g.TaskIDs()[0], T: at}) // retransmitted
	}
	decide := func(j *Job) { c.record(Event{Site: 0, job: j, Kind: EvDecided, Outcome: AcceptedDistributed}) }
	decide(jobs[0])
	if s := c.Summarize(); s.CompletedOnTime+s.CompletedLate != 0 || s.AcceptedNotCompleted != 1 {
		t.Fatalf("an accepted job not yet Done counted as completed: %+v", s)
	}
	done(jobs[0], 5)  // accepted, then done on time
	done(jobs[1], 6)  // done on time, then accepted
	done(jobs[2], 40) // done late, then accepted
	decide(jobs[1])
	decide(jobs[2])
	s := c.Summarize()
	if s.CompletedOnTime != 2 || s.CompletedLate != 1 || s.AcceptedNotCompleted != 0 {
		t.Fatalf("on time %d, late %d, not completed %d; want 2, 1, 0", s.CompletedOnTime, s.CompletedLate, s.AcceptedNotCompleted)
	}
	want := c.walkSummary()
	s.MeanDecisionLatency = want.MeanDecisionLatency
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("tally %+v, walk %+v", s, want)
	}
}
