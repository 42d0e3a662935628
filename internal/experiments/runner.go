// Package experiments reproduces the paper's artifacts as tables: the
// worked example of §12 (Figs. 2–4 and Table 1, the paper's only
// quantitative artifacts) and the evaluation suite — E1 guarantee ratio vs
// offered load, E2 messages per job vs network size, E3 sphere radius, E4
// deadline tightness, E5 laxity dispatching, E6 uniform machines, E7
// preemption, E8 mapper heuristics, E9 PCS construction cost, E11 data
// volumes, E12 fault tolerance, E13 the policy matrix, E14 churn and E15
// hierarchical scale. (E10, DES against wall-clock transport, is a test
// and a benchmark pair, not a table: internal/core's live tests and the
// root package's BenchmarkE10Transport*.)
//
// Every suite entry has one shape, Named: a table header, a number of
// points, and the rows one point contributes. A point derives all of its
// state from (size, seed, point), so points run on any worker in any
// order, and an experiment's table is its header plus every point's rows
// in point order. To add an experiment, write its header and row
// functions and list it in Suite with its point count (fixed(1) for a
// single point); RunTasks and All run it, rtds-bench prints it and
// rtds-bench -check pins it once BENCH_suite.json is regenerated.
//
// Nothing here reads a clock: a suite run's report is a function of the
// code and the seeds alone.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// runEnv carries one experiment point's settings and its event count. Every
// cluster the point drives adds its discrete-event count here (atomically:
// E2 runs its three schemes concurrently), so each experiment's count is
// its own even when many points run at once.
type runEnv struct {
	events atomic.Int64
	// kernelWorkers routes every RTDS-core cluster the task builds onto the
	// parallel kernel with that many partitions (core.Config.KernelWorkers);
	// 0 is the serial reference engine. The tables are byte-identical either
	// way — the setting trades wall-clock time only — and the fab/oracle
	// baselines have no DES core and are unaffected.
	kernelWorkers int
}

// Named is one suite experiment under its stable report name: table gives
// its caption and columns, points how many independent points it has at a
// size, and rows the rows one point contributes. The table is the header
// plus every point's rows in point order; points are what let the worker
// pool balance a suite whose largest point (E2 at 128 sites) dwarfs the
// rest.
type Named struct {
	Name   string
	table  func(Size) *Table
	points func(Size) int
	rows   func(env *runEnv, size Size, seed int64, point int) ([][]any, error)
}

// fixed is the point count of an experiment whose axis does not depend on
// the size.
func fixed(n int) func(Size) int { return func(Size) int { return n } }

// sweep is the point count of an experiment with one point per value of a
// size-dependent axis.
func sweep[T any](axis func(Size) []T) func(Size) int {
	return func(s Size) int { return len(axis(s)) }
}

// Suite lists the full experiment suite, paper example first, in the stable
// order every report uses.
func Suite() []Named {
	return []Named{
		{"paper", paperTable, fixed(1), paperRows},
		{"E1-guarantee-vs-load", e1Table, fixed(len(e1Loads)), e1Row},
		{"E2-messages-vs-size", e2Table, sweep(e2Sizes), e2Row},
		{"E3-sphere-radius", e3Table, fixed(len(e3Radii)), e3Row},
		{"E4-deadline-tightness", e4Table, fixed(len(e4Tightness)), e4Row},
		{"E5-laxity-dispatch", e5Table, fixed(len(e5Modes)), e5Row},
		{"E6-uniform-machines", e6Table, fixed(1), e6Rows},
		{"E7-preemption", e7Table, fixed(len(e7Preemptive)), e7Row},
		{"E8-mapper-heuristics", e8Table, fixed(len(e8Heuristics)), e8Row},
		{"E9-pcs-construction", e9Table, sweep(e9Sizes), e9Row},
		{"E11-data-volumes", e11Table, fixed(len(e11CCRs)), e11Row},
		{"E12-fault-tolerance", e12Table, fixed(len(e12Loss)), e12Row},
		{"E13-policy-matrix", e13Table, fixed(len(e13Topos)), e13Row},
		{"E14-churn", e14Table, sweep(e14ChurnCounts), e14Row},
		{"E15-scale", e15Table, sweep(e15Sizes), e15Row},
	}
}

// Task is one experiment×seed cell of a suite run.
type Task struct {
	Exp  Named
	Seed int64
}

// Tasks lists one task per experiment×seed, seed-major: each seed's tables
// stay contiguous and in suite order.
func Tasks(suite []Named, seeds []int64) []Task {
	tasks := make([]Task, 0, len(suite)*len(seeds))
	for _, s := range seeds {
		for _, n := range suite {
			tasks = append(tasks, Task{Exp: n, Seed: s})
		}
	}
	return tasks
}

// Result is one completed suite task. Results are returned in task order
// regardless of which worker finished first, so merges are deterministic.
type Result struct {
	Name   string
	Seed   int64
	Table  *Table
	Events int64 // discrete events processed by this task's simulations
	Err    error
}

// RunTasks fans the tasks out over a worker pool, one pool unit per
// (task, point), and returns one Result per task, in task order. Every
// experiment draws all of its randomness from its own seed (per-task rand
// sources, no shared globals) and point rows are appended in point order,
// so the produced tables are byte-identical to All's serial run whatever
// the worker count. workers <= 0 selects GOMAXPROCS. kernelWorkers selects
// the simulation kernel of every RTDS-core cluster (0 serial, >= 1
// parallel; see core.Config.KernelWorkers).
func RunTasks(size Size, tasks []Task, workers, kernelWorkers int) []Result {
	type unit struct{ task, point int }
	var units []unit
	for ti, t := range tasks {
		for p := 0; p < t.Exp.points(size); p++ {
			units = append(units, unit{ti, p})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	type unitResult struct {
		rows   [][]any
		events int64
		err    error
	}
	uresults := make([]unitResult, len(units))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				if failed.Load() {
					// A unit already failed: don't burn minutes finishing a
					// suite whose result set is unusable anyway.
					uresults[i] = unitResult{err: errSuiteAborted}
					continue
				}
				u := units[i]
				t := tasks[u.task]
				env := &runEnv{kernelWorkers: kernelWorkers}
				ur := unitResult{}
				if ur.rows, ur.err = t.Exp.rows(env, size, t.Seed, u.point); ur.err != nil {
					failed.Store(true)
				}
				ur.events = env.events.Load()
				uresults[i] = ur
			}
		}()
	}
	wg.Wait()

	// Fold units back into per-task results. Units were emitted task-major
	// with ascending points, so walking them in order appends each table's
	// rows in point order.
	results := make([]Result, len(tasks))
	for i, t := range tasks {
		results[i] = Result{Name: t.Exp.Name, Seed: t.Seed, Table: t.Exp.table(size)}
	}
	for ui, u := range units {
		r := &results[u.task]
		ur := uresults[ui]
		r.Events += ur.events
		if r.Err == nil {
			r.Err = ur.err
		}
		if r.Err == nil {
			addRows(r.Table, ur.rows)
		}
	}
	return results
}

// addRows appends rows to tbl.
func addRows(tbl *Table, rows [][]any) {
	for _, r := range rows {
		tbl.AddRow(r...)
	}
}

// errSuiteAborted marks units skipped because an earlier unit failed. The
// underlying failure carries the diagnostic; FirstError skips these.
var errSuiteAborted = errors.New("experiments: aborted after an earlier failure")

// FirstError returns the first real failure in a result set (skipping the
// aborted-suite sentinel on units that never ran), or nil.
func FirstError(results []Result) error {
	var aborted error
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if errors.Is(r.Err, errSuiteAborted) {
			if aborted == nil {
				aborted = fmt.Errorf("%s (seed %d): %w", r.Name, r.Seed, r.Err)
			}
			continue
		}
		return fmt.Errorf("%s (seed %d): %w", r.Name, r.Seed, r.Err)
	}
	return aborted
}

// All runs the entire suite serially (no worker pool): for each experiment,
// its header and then every point's rows in order. It is the reference the
// parallel runner's determinism tests compare against.
func All(size Size, seed int64) ([]*Table, error) {
	var tables []*Table
	for _, n := range Suite() {
		tbl := n.table(size)
		for p := 0; p < n.points(size); p++ {
			rows, err := n.rows(new(runEnv), size, seed, p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n.Name, err)
			}
			addRows(tbl, rows)
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

// ---------------------------------------------------------------------------
// Suite benchmark report (cmd/rtds-bench -json)

// BenchExperiment is one experiment's entry in the suite report: its
// simulations' event count and its rendered table, one element per line
// (what rtds-bench prints for it). CompareReports pins both.
type BenchExperiment struct {
	Name   string   `json:"name"`
	Seed   int64    `json:"seed"`
	Events int64    `json:"events"`
	Table  []string `json:"table"`
}

// BenchReport is the BENCH_suite.json schema: the suite size, its seeds and
// one entry per experiment×seed, in run order. It holds nothing read off
// the host, so regenerating it anywhere writes the same bytes.
type BenchReport struct {
	Size        string            `json:"size"`
	Seeds       []int64           `json:"seeds"`
	Experiments []BenchExperiment `json:"experiments"`
}

// NewBenchReport turns a RunTasks result set into the JSON report.
func NewBenchReport(size Size, seeds []int64, results []Result) BenchReport {
	name := "full"
	if size == Quick {
		name = "quick"
	}
	rep := BenchReport{Size: name, Seeds: seeds}
	for _, r := range results {
		rep.Experiments = append(rep.Experiments, BenchExperiment{
			Name:   r.Name,
			Seed:   r.Seed,
			Events: r.Events,
			Table:  strings.Split(strings.TrimSuffix(r.Table.String(), "\n"), "\n"),
		})
	}
	return rep
}
