package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// runEnv carries per-task instrumentation through one experiment run. Every
// cluster an experiment drives reports its discrete-event count and compute
// time here, so the suite can attribute simulation throughput (events/sec)
// to individual experiments even when many clusters run concurrently —
// busy time sums each cluster's own elapsed time, so overlapping runs
// (e.g. E2's three schemes) do not inflate the throughput metric.
type runEnv struct {
	events atomic.Int64
	busyNS atomic.Int64
	// kernelWorkers routes every RTDS-core cluster the task builds onto the
	// parallel kernel with that many partitions (core.Config.KernelWorkers);
	// 0 is the serial reference engine. The tables are byte-identical either
	// way — the setting trades wall-clock time only — and the fab/oracle
	// baselines have no DES core and are unaffected.
	kernelWorkers int
}

// note accumulates one cluster run's processed-event count and elapsed time.
func (e *runEnv) note(n int64, elapsed time.Duration) {
	e.events.Add(n)
	e.busyNS.Add(int64(elapsed))
}

// Named pairs an experiment with its stable report name. Sweep experiments
// additionally describe row-level shards: independent units of work whose
// row blocks, concatenated in shard order, form exactly the table the
// whole-experiment run produces. Shards are what let the worker pool
// balance a suite whose largest experiment dwarfs the rest.
type Named struct {
	Name string
	run  func(*runEnv, Size, int64) (*metrics.Table, error)

	// Sharding; nil shards means the experiment is indivisible.
	shards    func(Size) int
	newTable  func(Size) *metrics.Table
	shardRows func(*runEnv, Size, int64, int) ([][]any, error)
}

// runShardsSerially assembles a sharded experiment's table by computing
// every shard in order — the serial reference path and the body of the
// sharded experiments' whole-run functions.
func runShardsSerially(env *runEnv, size Size, seed int64,
	shards func(Size) int, newTable func(Size) *metrics.Table,
	rows func(*runEnv, Size, int64, int) ([][]any, error)) (*metrics.Table, error) {
	tbl := newTable(size)
	for s := 0; s < shards(size); s++ {
		rs, err := rows(env, size, seed, s)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			tbl.AddRow(r...)
		}
	}
	return tbl, nil
}

// Suite lists the full experiment suite, paper example first, in the stable
// order every report uses.
func Suite() []Named {
	return []Named{
		{Name: "paper", run: runPaperExample},
		{Name: "E1-guarantee-vs-load", run: e1GuaranteeVsLoad,
			shards: e1Shards, newTable: e1Table, shardRows: e1Row},
		{Name: "E2-messages-vs-size", run: e2MessagesVsNetworkSize,
			shards: e2Shards, newTable: e2Table, shardRows: e2Row},
		{Name: "E3-sphere-radius", run: e3SphereRadius},
		{Name: "E4-deadline-tightness", run: e4DeadlineTightness,
			shards: e4Shards, newTable: e4Table, shardRows: e4Row},
		{Name: "E5-laxity-dispatch", run: e5LaxityDispatch},
		{Name: "E6-uniform-machines", run: e6UniformMachines},
		{Name: "E7-preemption", run: e7Preemption},
		{Name: "E8-mapper-heuristics", run: e8MapperHeuristics},
		{Name: "E9-pcs-construction", run: e9PCSConstruction,
			shards: e9Shards, newTable: e9Table, shardRows: e9Row},
		{Name: "E11-data-volumes", run: e11DataVolumes,
			shards: e11Shards, newTable: e11Table, shardRows: e11Row},
		{Name: "E12-fault-tolerance", run: e12FaultTolerance,
			shards: e12Shards, newTable: e12Table, shardRows: e12Row},
		{Name: "E13-policy-matrix", run: e13PolicyMatrix,
			shards: e13Shards, newTable: e13Table, shardRows: e13Row},
		{Name: "E14-churn", run: e14Churn,
			shards: e14Shards, newTable: e14Table, shardRows: e14Row},
		{Name: "E15-scale", run: e15Scale,
			shards: e15Shards, newTable: e15Table, shardRows: e15Row},
	}
}

// runPaperExample wraps the paper's worked example (Figs. 2-4, Table 1) as a
// suite task: it recomputes the example, verifies it against the paper's
// numbers and reports Table 1.
func runPaperExample(_ *runEnv, _ Size, _ int64) (*metrics.Table, error) {
	paper, err := PaperExample()
	if err != nil {
		return nil, err
	}
	if err := VerifyPaperExample(paper); err != nil {
		return nil, fmt.Errorf("paper example mismatch: %w", err)
	}
	return paper.Table1, nil
}

// Task is one experiment×seed cell of a suite run.
type Task struct {
	Exp  Named
	Seed int64
}

// Result is one completed suite task. Results are returned in task order
// regardless of which worker finished first, so merges are deterministic.
// For sharded experiments Wall sums the task's shard walls, which can
// exceed the suite's wall clock; Busy sums each cluster simulation's own
// elapsed time, so it stays meaningful even when an experiment overlaps
// cluster runs internally (E2 drives its three schemes concurrently).
type Result struct {
	Name   string
	Seed   int64
	Table  *metrics.Table
	Wall   time.Duration
	Busy   time.Duration // summed per-cluster simulation time
	Events int64         // discrete events processed by this task's simulations
	Err    error
}

// RunTasks fans the tasks out over a worker pool and returns one Result per
// task, in task order. Sharded experiments are split into one pool unit per
// shard, so one expensive sweep point (E2 at 128 sites) does not serialize
// the suite. Every experiment draws all of its randomness from its own seed
// (per-task rand sources, no shared globals) and shard row blocks are
// merged in shard order, so the produced tables are byte-identical to a
// serial run whatever the worker count. workers <= 0 selects GOMAXPROCS.
// kernelWorkers selects the simulation kernel of every RTDS-core cluster
// (0 serial, >= 1 parallel; see core.Config.KernelWorkers).
func RunTasks(size Size, tasks []Task, workers, kernelWorkers int) []Result {
	type unit struct {
		task  int // index into tasks
		shard int // -1: run the whole experiment
	}
	var units []unit
	for ti, t := range tasks {
		if t.Exp.shards != nil && t.Exp.shards(size) > 1 {
			for s := 0; s < t.Exp.shards(size); s++ {
				units = append(units, unit{ti, s})
			}
		} else {
			units = append(units, unit{ti, -1})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	type unitResult struct {
		table  *metrics.Table // whole-experiment units
		rows   [][]any        // shard units
		wall   time.Duration
		busy   time.Duration
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
				start := time.Now() //lint:allow wallclock -- wall-time measurement of suite throughput; never enters simulation state
				ur := unitResult{}
				if u.shard < 0 {
					ur.table, ur.err = t.Exp.run(env, size, t.Seed)
				} else {
					ur.rows, ur.err = t.Exp.shardRows(env, size, t.Seed, u.shard)
				}
				if ur.err != nil {
					failed.Store(true)
				}
				ur.wall = time.Since(start) //lint:allow wallclock -- wall-time measurement of suite throughput; never enters simulation state
				ur.busy = time.Duration(env.busyNS.Load())
				ur.events = env.events.Load()
				uresults[i] = ur
			}
		}()
	}
	wg.Wait()

	// Fold units back into per-task results. Units were emitted task-major
	// with ascending shard indices, so walking them in order reassembles
	// each sharded table deterministically.
	results := make([]Result, len(tasks))
	for i, t := range tasks {
		results[i] = Result{Name: t.Exp.Name, Seed: t.Seed}
		if t.Exp.shards != nil && t.Exp.shards(size) > 1 {
			results[i].Table = t.Exp.newTable(size)
		}
	}
	for ui, u := range units {
		r := &results[u.task]
		ur := uresults[ui]
		r.Wall += ur.wall
		r.Busy += ur.busy
		r.Events += ur.events
		if ur.err != nil {
			if r.Err == nil {
				r.Err = ur.err
			}
			continue
		}
		if u.shard < 0 {
			r.Table = ur.table
		} else if r.Err == nil {
			for _, row := range ur.rows {
				r.Table.AddRow(row...)
			}
		}
	}
	return results
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

// RunAll runs the entire suite for one seed on a worker pool and returns the
// tables in the same stable order All produces. workers <= 0 selects
// GOMAXPROCS; workers == 1 degenerates to a serial run. kernelWorkers is
// passed through to RunTasks.
func RunAll(size Size, seed int64, workers, kernelWorkers int) ([]*metrics.Table, error) {
	suite := Suite()
	tasks := make([]Task, len(suite))
	for i, n := range suite {
		tasks[i] = Task{Exp: n, Seed: seed}
	}
	results := RunTasks(size, tasks, workers, kernelWorkers)
	if err := FirstError(results); err != nil {
		return nil, err
	}
	tables := make([]*metrics.Table, len(results))
	for i, r := range results {
		tables[i] = r.Table
	}
	return tables, nil
}

// All runs the entire suite serially (no worker pool) and returns the tables
// in a stable order. It is the reference the parallel runner's determinism
// tests compare against; cmd/rtds-bench uses RunAll.
func All(size Size, seed int64) ([]*metrics.Table, error) {
	var tables []*metrics.Table
	for _, n := range Suite() {
		t, err := n.run(new(runEnv), size, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n.Name, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// ---------------------------------------------------------------------------
// Suite benchmark report (cmd/rtds-bench -json)

// BenchExperiment is one experiment's row in the suite benchmark report.
// WallSeconds sums the experiment's pool-unit walls; BusySeconds sums its
// cluster simulations' own elapsed times, and is the denominator of
// EventsPerSec so internally-overlapped cluster runs do not inflate the
// throughput number.
type BenchExperiment struct {
	Name            string             `json:"name"`
	Seed            int64              `json:"seed"`
	WallSeconds     float64            `json:"wall_seconds"`
	BusySeconds     float64            `json:"busy_seconds"`
	Events          int64              `json:"events"`
	EventsPerSec    float64            `json:"events_per_sec"`
	Rows            int                `json:"rows"`
	GuaranteeRatios map[string]float64 `json:"guarantee_ratios,omitempty"`
}

// BenchReport is the BENCH_suite.json schema: suite-level wall time and
// simulation throughput plus one entry per experiment×seed, in run order.
type BenchReport struct {
	Size         string            `json:"size"`
	Seeds        []int64           `json:"seeds"`
	Workers      int               `json:"workers"`
	WallSeconds  float64           `json:"wall_seconds"`
	TotalEvents  int64             `json:"total_events"`
	EventsPerSec float64           `json:"events_per_sec"`
	Experiments  []BenchExperiment `json:"experiments"`
	// Micro pins the hot-path allocation budget (see RunMicroBenches);
	// CompareReports gates allocs/op exactly, never ns/op.
	Micro []MicroBench `json:"micro,omitempty"`
	// Kernel records the parallel kernel's single-run scaling curve
	// (events/sec vs partition count on the token storm, against the serial
	// engine). CompareReports checks its determinism invariant everywhere
	// and its speedup floor on machines with enough cores to express one.
	Kernel *KernelBench `json:"kernel,omitempty"`
	// Routing records the hierarchical routing sweep (see RunRoutingBench).
	// CompareReports requires the per-site table-bytes curve to stay
	// sub-linear in the site count and msgs/job at the largest point not to
	// regress; both are deterministic.
	Routing *RoutingBench `json:"routing,omitempty"`
}

// NewBenchReport summarizes a RunTasks result set into the JSON report.
// suiteWall is the wall-clock time of the whole run (less than the sum of
// per-task walls when workers > 1).
func NewBenchReport(size Size, seeds []int64, workers int, suiteWall time.Duration, results []Result) BenchReport {
	name := "full"
	if size == Quick {
		name = "quick"
	}
	rep := BenchReport{
		Size:        name,
		Seeds:       seeds,
		Workers:     workers,
		WallSeconds: suiteWall.Seconds(),
	}
	for _, r := range results {
		e := BenchExperiment{
			Name:        r.Name,
			Seed:        r.Seed,
			WallSeconds: r.Wall.Seconds(),
			BusySeconds: r.Busy.Seconds(),
			Events:      r.Events,
		}
		if r.Busy > 0 {
			e.EventsPerSec = float64(r.Events) / r.Busy.Seconds()
		}
		if r.Table != nil {
			e.Rows = r.Table.NumRows()
			e.GuaranteeRatios = guaranteeRatios(r.Table)
		}
		rep.TotalEvents += r.Events
		rep.Experiments = append(rep.Experiments, e)
	}
	if suiteWall > 0 {
		rep.EventsPerSec = float64(rep.TotalEvents) / suiteWall.Seconds()
	}
	return rep
}

// ratioColumns are the table headers that report guarantee ratios under
// algorithm names rather than a literal "ratio" column (E1, E4).
var ratioColumns = map[string]bool{
	"oracle": true, "rtds": true, "local-only": true,
	"broadcast": true, "fa-bidding": true,
}

// guaranteeRatios extracts the mean of every guarantee-ratio column of a
// table, keyed by column header. Tables without ratio columns yield nil.
func guaranteeRatios(t *metrics.Table) map[string]float64 {
	var out map[string]float64
	for col, h := range t.Headers {
		lower := strings.ToLower(h)
		if !ratioColumns[lower] && !strings.Contains(lower, "ratio") {
			continue
		}
		sum, n := 0.0, 0
		for row := 0; row < t.NumRows(); row++ {
			v, err := strconv.ParseFloat(t.Cell(row, col), 64)
			if err != nil {
				continue
			}
			sum += v
			n++
		}
		if n == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[h] = sum / float64(n)
	}
	return out
}
