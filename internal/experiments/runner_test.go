package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// renderAll flattens a table list into one string, the byte-identity unit
// the determinism tests compare.
func renderAll(tables []*metrics.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestParallelSuiteDeterministicMerge: for identical seeds, the parallel
// runner must produce byte-identical tables to the serial reference,
// whatever the worker count.
func TestParallelSuiteDeterministicMerge(t *testing.T) {
	serial, err := All(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(serial)
	for _, workers := range []int{1, 8} {
		par, err := RunAll(Quick, 1, workers, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderAll(par); got != want {
			t.Errorf("workers=%d: parallel tables diverge from serial run\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, want, got)
		}
	}
}

// TestRunTasksOrderAndInstrumentation: results come back in task order with
// wall time and event counts filled in for simulation-driving experiments.
func TestRunTasksOrderAndInstrumentation(t *testing.T) {
	suite := Suite()
	byName := map[string]Named{}
	for _, n := range suite {
		byName[n.Name] = n
	}
	tasks := []Task{
		{Exp: byName["E9-pcs-construction"], Seed: 1},
		{Exp: byName["paper"], Seed: 2},
		{Exp: byName["E9-pcs-construction"], Seed: 3},
	}
	results := RunTasks(Quick, tasks, 4, 0)
	if len(results) != len(tasks) {
		t.Fatalf("%d results for %d tasks", len(results), len(tasks))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("task %d (%s): %v", i, r.Name, r.Err)
		}
		if r.Name != tasks[i].Exp.Name || r.Seed != tasks[i].Seed {
			t.Errorf("result %d is %s/seed %d, want %s/seed %d",
				i, r.Name, r.Seed, tasks[i].Exp.Name, tasks[i].Seed)
		}
		if r.Table == nil || r.Wall <= 0 {
			t.Errorf("result %d missing table or wall time: %+v", i, r)
		}
	}
	// The PCS construction experiment runs bootstrap simulations: its event
	// count must be attributed to its own task, not the neighbors.
	if results[0].Events == 0 || results[2].Events == 0 {
		t.Errorf("E9 tasks report zero events: %d, %d", results[0].Events, results[2].Events)
	}
	if results[1].Events != 0 {
		t.Errorf("paper example reports %d events, want 0 (no DES run)", results[1].Events)
	}
	// Same experiment, different seeds: identical seeds would be a wiring bug.
	if results[0].Table.String() == results[2].Table.String() {
		t.Error("different seeds produced identical E9 tables")
	}
}

// TestSameSeedSameTableAcrossWorkers re-runs one experiment concurrently
// with itself and checks the outputs are identical — the per-task rand
// sources must not interfere.
func TestSameSeedSameTableAcrossWorkers(t *testing.T) {
	e9 := Named{}
	for _, n := range Suite() {
		if n.Name == "E9-pcs-construction" {
			e9 = n
		}
	}
	tasks := []Task{{Exp: e9, Seed: 7}, {Exp: e9, Seed: 7}, {Exp: e9, Seed: 7}}
	results := RunTasks(Quick, tasks, 3, 0)
	for i := 1; i < len(results); i++ {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		if results[i].Table.String() != results[0].Table.String() {
			t.Errorf("concurrent same-seed runs diverged:\n%s\n%s",
				results[0].Table, results[i].Table)
		}
	}
}

func TestBenchReportAggregation(t *testing.T) {
	tbl := metrics.NewTable("t", "load", "rtds", "msgs/job")
	tbl.AddRow(0.5, 0.8, 12.0)
	tbl.AddRow(1.0, 0.6, 14.0)
	results := []Result{
		{Name: "E1", Seed: 1, Table: tbl, Wall: time.Second, Busy: time.Second, Events: 1000},
		{Name: "E5", Seed: 1, Table: metrics.NewTable("x", "mode"), Wall: time.Second, Events: 0},
	}
	rep := NewBenchReport(Quick, []int64{1}, 4, 2*time.Second, results)
	if rep.Size != "quick" || rep.Workers != 4 {
		t.Fatalf("report header %+v", rep)
	}
	if rep.TotalEvents != 1000 || rep.EventsPerSec != 500 {
		t.Fatalf("events %d at %f/s, want 1000 at 500/s", rep.TotalEvents, rep.EventsPerSec)
	}
	if len(rep.Experiments) != 2 {
		t.Fatalf("%d experiments", len(rep.Experiments))
	}
	e1 := rep.Experiments[0]
	if e1.EventsPerSec != 1000 {
		t.Fatalf("e1 %+v", e1)
	}
	// The report carries each table as the lines rtds-bench prints for it.
	if got, want := strings.Join(e1.Table, "\n")+"\n", tbl.String(); got != want {
		t.Fatalf("e1 table lines\n%q\nwant the rendered table\n%q", got, want)
	}
	if len(e1.Table) != 5 || e1.Table[4] != "1      0.600  14      " {
		t.Fatalf("e1 table %q: want caption, header, rule and two rows", e1.Table)
	}
}
