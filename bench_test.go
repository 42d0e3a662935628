// Benchmarks: one target per paper artifact (Fig. 2–4, Table 1), one
// sub-benchmark per suite experiment (the E-tables listed in the
// internal/experiments package doc, at the Quick size), and the E10
// transport pair. `go run ./cmd/rtds-bench` runs the Full configuration.
package rtds_test

import (
	"testing"
	"time"

	rtds "repro"
	"repro/internal/core"
	"repro/internal/experiments"
)

// BenchmarkFig2TaskGraph measures constructing the paper's example DAG.
func BenchmarkFig2TaskGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PaperExampleDAG()
	}
}

// BenchmarkFig3Fig4Schedules measures the mapper computing the schedules S
// (Fig. 3) and S* (Fig. 4).
func BenchmarkFig3Fig4Schedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PaperExample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Adjustment measures the full §12 pipeline including the
// window adjustment of Table 1, verifying the values each iteration.
func BenchmarkTable1Adjustment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PaperExample()
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.VerifyPaperExample(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuite regenerates each suite experiment's Quick table, one
// sub-benchmark per Suite() entry, on one worker.
func BenchmarkSuite(b *testing.B) {
	for _, n := range experiments.Suite() {
		b.Run(n.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunTasks(experiments.Quick, []experiments.Task{{Exp: n, Seed: 1}}, 1, 0)
				if err := experiments.FirstError(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuiteSerial runs the entire Quick suite serially — the baseline
// the parallel runner is measured against.
func BenchmarkSuiteSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.All(experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteParallel runs the entire Quick suite on the worker pool at
// GOMAXPROCS. On a 4+ core machine this is the ≥2x wall-time win the
// harness banks on; on one core it degenerates to the serial cost.
func BenchmarkSuiteParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTasks(experiments.Quick, experiments.Tasks(experiments.Suite(), []int64{1}), 0, 0)
		if err := experiments.FirstError(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10TransportDES measures one distributed admission end to end on
// the deterministic transport.
func BenchmarkE10TransportDES(b *testing.B) {
	topo := rtds.NewNetwork(3)
	topo.MustAddEdge(0, 1, 0.05)
	topo.MustAddEdge(1, 2, 0.05)
	job := rtds.NewJob("par").Task(1, 10).Task(2, 10).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := rtds.NewCluster(topo, rtds.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rec, err := c.Submit(0, 0, job, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		if rec.Outcome != core.AcceptedDistributed {
			b.Fatalf("outcome %v", rec.Outcome)
		}
	}
}

// BenchmarkE10TransportLive measures the same admission on the live
// goroutine transport (includes real scaled delays, so it is wall-clock
// bound by design).
func BenchmarkE10TransportLive(b *testing.B) {
	topo := rtds.NewNetwork(3)
	topo.MustAddEdge(0, 1, 0.05)
	topo.MustAddEdge(1, 2, 0.05)
	cfg := rtds.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	job := rtds.NewJob("par").Task(1, 10).Task(2, 10).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := rtds.NewLiveCluster(topo, cfg, 100*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Submit(0, 0, job, 40); err != nil {
			b.Fatal(err)
		}
		if !c.Wait(30 * time.Second) {
			b.Fatal("no quiesce")
		}
		c.Close()
	}
}

// BenchmarkEndToEndThroughput measures jobs decided per second on a mid-size
// cluster under the standard workload — the headline systems number.
func BenchmarkEndToEndThroughput(b *testing.B) {
	topo := rtds.NewRandomNetwork(32, 3, 1)
	arrivals, err := rtds.GenerateWorkload(rtds.Workload{
		Sites:       32,
		Horizon:     200,
		RatePerSite: 0.03,
		TaskSize:    8,
		Tightness:   2.5,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := rtds.NewCluster(topo, rtds.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := rtds.SubmitAll(c, arrivals); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(arrivals)), "jobs/op")
}
