package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/daggen"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/simnet"
)

// TestTracingDoesNotPerturb: record changes a job the same way whether or
// not it logs the fact. One seeded random workload runs untraced and
// traced, on a plain cluster and on one with a crash plan (which arms
// membership), on the serial and the parallel kernel; the summaries, the
// job statuses and the violations must not tell the two runs apart.
func TestTracingDoesNotPerturb(t *testing.T) {
	type result struct {
		sum        Summary
		statuses   []JobStatus
		violations []string
	}
	run := func(crash bool, workers int, trace bool) result {
		cfg := DefaultConfig()
		cfg.KernelWorkers = workers
		cfg.TraceEvents = trace
		if crash {
			cfg.Faults = &simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 3, At: 20, For: 30}}}
		}
		c := mustCluster(t, graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 7), cfg)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			g, err := daggen.Generate(daggen.AllKinds[rng.Intn(len(daggen.AllKinds))], 3+rng.Intn(8),
				daggen.Params{MinComplexity: 0.5, MaxComplexity: 4}, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			dl := g.CriticalPathLength() * (1.2 + rng.Float64()*3)
			if _, err := c.Submit(rng.Float64()*100, graph.NodeID(rng.Intn(12)), g, dl); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return result{c.Summarize(), c.JobStatuses(), c.Violations()}
	}
	for _, crash := range []bool{false, true} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("crash=%v/workers=%d", crash, workers), func(t *testing.T) {
				off, on := run(crash, workers, false), run(crash, workers, true)
				if !reflect.DeepEqual(off.sum, on.sum) {
					t.Fatalf("summaries differ:\nuntraced %v\ntraced   %v", off.sum, on.sum)
				}
				if !reflect.DeepEqual(off.statuses, on.statuses) {
					t.Fatal("job statuses differ between the untraced and the traced run")
				}
				if !reflect.DeepEqual(off.violations, on.violations) {
					t.Fatalf("violations differ:\nuntraced %v\ntraced   %v", off.violations, on.violations)
				}
				if crash && off.sum.Disruptions == 0 {
					t.Fatalf("the crash plan recorded no disruption, so no anomaly was compared: %v", off.sum)
				}
			})
		}
	}
}

// TestUntracedRecordAllocs: an untraced phase record applies its fact and
// logs nothing, so it allocates nothing.
func TestUntracedRecordAllocs(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	job, err := c.Submit(0, 0, parJob(t, 2, 10), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Event{
		{Site: 0, job: job, Kind: EvArrival},
		{Site: 0, job: job, Kind: EvEnroll, N: 2},
		{Site: 0, job: job, Kind: EvACSFixed, N: 2},
		{Site: 0, job: job, Kind: EvMapped, N: 2, M: int(mapper.CaseScale), T: 10.1, U: 10},
		{Site: 0, job: job, Kind: EvValidated, N: 2, M: 2},
		{Site: 0, job: job, Kind: EvCommit, N: 2},
	} {
		if n := testing.AllocsPerRun(100, func() { c.record(e) }); n != 0 {
			t.Errorf("untraced %s record: %v allocs, want 0", e.Kind, n)
		}
	}
	if len(c.Events()) != 0 {
		t.Fatalf("untraced phase records were logged: %v", c.Events())
	}
	if job.NumProcs != 2 || job.ACSSize != 2 {
		t.Fatalf("records did not apply: procs %d acs %d, want 2 and 2", job.NumProcs, job.ACSSize)
	}
}
