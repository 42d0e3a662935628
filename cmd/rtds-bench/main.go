// Command rtds-bench runs the full experiment suite (DESIGN.md §4) on a
// parallel worker pool and prints every table; -md emits GitHub-flavored
// markdown for EXPERIMENTS.md, -json writes the machine-readable suite
// benchmark (per-experiment wall time, events/sec, guarantee ratios) so the
// performance trajectory is tracked across PRs.
//
// With -scheme the tool instead benchmarks one registered scheme on one
// -topo topology: a targeted cell (scheme × topology × load) with wall time
// and events/sec, without running the whole suite.
//
// With -check the tool is the CI gate for table identity and allocs/op: it
// re-runs the suite at the committed baseline's size and seeds and fails if
// any per-experiment guarantee ratio or row count drifts from the baseline,
// a hot path allocates more per op, the routing sweep moves, or the kernel
// storm loses its determinism (or, on >= 8 cores, its 4x floor). Events/sec
// is printed, never compared: speed is measured by go run ./benchmark.
//
// -kernel-workers selects the simulation kernel for every RTDS-core cluster
// the run builds: 0 (the default) the serial reference engine, N >= 1 the
// conservative parallel kernel with N partitions. The produced tables are
// byte-identical either way — the flag trades wall-clock time only, and
// running -check with it is a live proof of that invariant.
//
// -cpuprofile, -memprofile and -trace write the standard pprof/runtime-trace
// artifacts for whichever mode runs, so kernel scaling work can be measured
// rather than guessed at.
//
// Usage:
//
//	rtds-bench [-quick] [-md] [-seed N] [-trials N] [-workers N] [-kernel-workers N] [-json] [-out FILE] [-exp SUBSTR]
//	rtds-bench -scheme NAME [-topo KIND] [-sites N] [-load F] [-quick] [-seed N] [-kernel-workers N]
//	rtds-bench -check BENCH_suite.json [-workers N] [-kernel-workers N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/scheme"
)

func main() {
	quick := flag.Bool("quick", false, "small networks/horizons (seconds instead of minutes)")
	md := flag.Bool("md", false, "emit markdown tables")
	seed := flag.Int64("seed", 1, "base random seed for every experiment")
	trials := flag.Int("trials", 1, "run the suite at seeds seed..seed+trials-1")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size (1 = serial)")
	jsonOut := flag.Bool("json", false, "write the machine-readable suite benchmark")
	outPath := flag.String("out", "BENCH_suite.json", "path of the -json report")
	expFilter := flag.String("exp", "", "run only experiments whose name contains this substring (e.g. E12, fault)")
	schemeName := flag.String("scheme", "", "benchmark one scheme ("+strings.Join(scheme.Names(), "|")+") instead of the suite")
	topoKind := flag.String("topo", "random", "topology kind of the -scheme benchmark: ring|line|star|clique|grid|torus|hypercube|tree|random|geometric")
	sites := flag.Int("sites", 0, "sites of the -scheme benchmark (0 = suite default for the size)")
	load := flag.Float64("load", 0.6, "offered load of the -scheme benchmark")
	checkPath := flag.String("check", "", "regression gate: re-run the suite at this baseline's size/seeds and fail on drift")
	kernelWorkers := flag.Int("kernel-workers", 0, "simulation kernel for rtds-core clusters: 0 = serial reference, N = parallel kernel with N partitions (tables are byte-identical)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	tracePath := flag.String("trace", "", "write a runtime execution trace of the run to this file")
	flag.Parse()

	size := experiments.Full
	if *quick {
		size = experiments.Quick
	}
	if *trials < 1 {
		*trials = 1
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *kernelWorkers < 0 {
		fmt.Fprintln(os.Stderr, "error: -kernel-workers must be >= 0")
		os.Exit(1)
	}
	stopProfiling, err := startProfiling(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer stopProfiling()

	// The modes accept disjoint flag sets; a flag from another mode would
	// be silently ignored, so refuse it loudly instead of letting a user
	// read suite tables as torus numbers (or wait for a report that will
	// never be written).
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *checkPath != "" {
		for _, other := range []string{"scheme", "topo", "sites", "load", "json", "out", "md", "exp", "trials", "quick", "seed"} {
			if explicit[other] {
				fmt.Fprintf(os.Stderr, "error: -%s does not apply to -check mode (size and seeds come from the baseline)\n", other)
				os.Exit(1)
			}
		}
		if err := checkBaseline(*checkPath, *workers, *kernelWorkers); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if *schemeName != "" {
		for _, suiteOnly := range []string{"json", "out", "md", "exp", "trials", "workers"} {
			if explicit[suiteOnly] {
				fmt.Fprintf(os.Stderr, "error: -%s applies to suite runs only, not -scheme mode\n", suiteOnly)
				os.Exit(1)
			}
		}
		if err := benchScheme(*schemeName, *topoKind, *sites, *load, *quick, *seed, *kernelWorkers); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	for _, schemeOnly := range []string{"topo", "sites", "load"} {
		if explicit[schemeOnly] {
			fmt.Fprintf(os.Stderr, "error: -%s applies to -scheme mode only; the suite runs its fixed configurations\n", schemeOnly)
			os.Exit(1)
		}
	}

	// One task per experiment×seed; trial-major order keeps each trial's
	// tables contiguous and in suite order.
	suite := experiments.Suite()
	if *expFilter != "" {
		var keep []experiments.Named
		for _, n := range suite {
			if strings.Contains(strings.ToLower(n.Name), strings.ToLower(*expFilter)) {
				keep = append(keep, n)
			}
		}
		if len(keep) == 0 {
			fmt.Fprintf(os.Stderr, "error: -exp %q matches no experiment; suite:", *expFilter)
			for _, n := range suite {
				fmt.Fprintf(os.Stderr, " %s", n.Name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(1)
		}
		suite = keep
	}
	var tasks []experiments.Task
	var seeds []int64
	for t := 0; t < *trials; t++ {
		s := *seed + int64(t)
		seeds = append(seeds, s)
		for _, n := range suite {
			tasks = append(tasks, experiments.Task{Exp: n, Seed: s})
		}
	}

	start := time.Now()
	results := experiments.RunTasks(size, tasks, *workers, *kernelWorkers)
	wall := time.Since(start)
	if err := experiments.FirstError(results); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	// Print the first trial's tables (the historical rtds-bench output);
	// additional trials only feed the JSON report.
	for _, r := range results[:len(suite)] {
		if *md {
			fmt.Println(r.Table.Markdown())
		} else {
			fmt.Println(r.Table.String())
		}
	}

	if *jsonOut {
		rep := experiments.NewBenchReport(size, seeds, *workers, wall, results)
		if err := measureSections(&rep, true, true, true); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiment runs, %.0f events/sec)\n",
			*outPath, len(rep.Experiments), rep.EventsPerSec)
	}
	fmt.Fprintf(os.Stderr, "suite completed in %v on %d workers (%d tasks)\n",
		wall.Round(time.Millisecond), *workers, len(tasks))
}

// startProfiling starts whichever of the three profilers were requested and
// returns a single stop function (run the deferred way; error-path os.Exit
// calls lose the profile, which is fine — the run failed). The heap profile
// is taken at stop time, after a GC, so it shows retained memory rather than
// transient garbage.
func startProfiling(cpuPath, memPath, tracePath string) (func(), error) {
	var stops []func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start execution trace: %w", err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "error: write heap profile:", err)
			}
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}

// measureSections fills the report's sections beside the experiment tables:
// -json measures all three, -check those its baseline carries.
func measureSections(rep *experiments.BenchReport, micro, kernel, routing bool) (err error) {
	if micro {
		fmt.Fprintln(os.Stderr, "running hot-path micro-benchmarks (allocs/op)")
		rep.Micro = experiments.RunMicroBenches()
	}
	if kernel {
		fmt.Fprintln(os.Stderr, "running kernel scaling benchmark (token storm)")
		if rep.Kernel, err = experiments.RunKernelBench(); err != nil {
			return err
		}
	}
	if routing {
		fmt.Fprintln(os.Stderr, "running hierarchical routing benchmark (scale sweep)")
		if rep.Routing, err = experiments.RunRoutingBench(); err != nil {
			return err
		}
	}
	return nil
}

// checkBaseline is the regression gate: re-run the suite exactly as the
// committed baseline describes (size, seeds), then compare what is
// deterministic — guarantee ratios, row counts, allocs/op, the routing sweep
// and the kernel storm's event count.
func checkBaseline(path string, workers, kernelWorkers int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var baseline experiments.BenchReport
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if len(baseline.Experiments) == 0 || len(baseline.Seeds) == 0 {
		return fmt.Errorf("baseline %s has no experiments/seeds", path)
	}
	size := experiments.Full
	if baseline.Size == "quick" {
		size = experiments.Quick
	}
	suite := experiments.Suite()
	var tasks []experiments.Task
	for _, s := range baseline.Seeds {
		for _, n := range suite {
			tasks = append(tasks, experiments.Task{Exp: n, Seed: s})
		}
	}
	fmt.Fprintf(os.Stderr, "regression gate: re-running the %s suite at seeds %v on %d workers\n",
		baseline.Size, baseline.Seeds, workers)
	start := time.Now()
	results := experiments.RunTasks(size, tasks, workers, kernelWorkers)
	wall := time.Since(start)
	if err := experiments.FirstError(results); err != nil {
		return err
	}
	current := experiments.NewBenchReport(size, baseline.Seeds, workers, wall, results)
	if err := measureSections(&current, len(baseline.Micro) > 0, baseline.Kernel != nil, baseline.Routing != nil); err != nil {
		return err
	}
	if err := experiments.CompareReports(baseline, current); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"regression gate passed: %d experiments match the baseline, %.0f events/sec (baseline %.0f) in %v\n",
		len(current.Experiments), current.EventsPerSec, baseline.EventsPerSec, wall.Round(time.Millisecond))
	return nil
}

// benchScheme benchmarks one registered scheme on one generated topology:
// build (bootstrap included), submit a standard workload, drain, and report
// the outcome with wall time and simulation throughput.
func benchScheme(name, topoKind string, sites int, load float64, quick bool, seed int64, kernelWorkers int) error {
	s, ok := scheme.Get(name)
	if !ok {
		return fmt.Errorf("unknown scheme %q; have %s", name, strings.Join(scheme.Names(), ", "))
	}
	n, horizon := 32, 400.0
	if quick {
		n, horizon = 16, 150.0
	}
	if sites > 0 {
		n = sites
	}
	topo, err := graph.Generate(graph.TopologyKind(topoKind), n, experiments.StdDelays, seed)
	if err != nil {
		return err
	}
	// Literally the suite's workload shape, so "-scheme shares the suite's
	// workload" stays true by construction.
	arrivals, err := experiments.ArrivalsForLoad(
		experiments.StdSpec(topo.Len(), horizon, seed), load)
	if err != nil {
		return err
	}
	start := time.Now()
	c, err := s.Build(topo, scheme.Config{Horizon: horizon, KernelWorkers: kernelWorkers})
	if err != nil {
		return err
	}
	for _, a := range arrivals {
		if err := c.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			return err
		}
	}
	if err := c.Run(); err != nil {
		return err
	}
	wall := time.Since(start)
	res := c.Summarize()
	fmt.Printf("scheme %s on %s (%d sites, %d links), load %.2f, %d jobs\n",
		s.Name(), topoKind, topo.Len(), topo.NumEdges(), load, len(arrivals))
	fmt.Printf("ratio=%.3f msgs/job=%.1f bytes=%d\n",
		res.GuaranteeRatio, res.MessagesPerJob, res.Bytes)
	if res.Core != nil {
		fmt.Println(*res.Core)
	}
	perSec := 0.0
	if wall > 0 {
		perSec = float64(c.EventsProcessed()) / wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "completed in %v (%d events, %.0f events/sec)\n",
		wall.Round(time.Millisecond), c.EventsProcessed(), perSec)
	return nil
}
