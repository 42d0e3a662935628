// Command rtds-bench runs the full experiment suite (the E-tables the
// internal/experiments package doc lists) on a parallel worker pool and
// prints every table; -md emits GitHub-flavored markdown, -json writes the
// suite report (each experiment's event count and rendered table). The
// report holds nothing read off the host, so two regenerations are
// byte-identical; the run's wall time goes to stderr only.
//
// With -check the tool is the CI gate for the suite's results: it re-runs
// the suite at the committed baseline's size and seeds and fails unless the
// run produces the same experiment@seed set with every table identical line
// for line and every event count equal, naming the first differing line of
// each experiment that moved. Speed is measured by go run ./benchmark.
//
// -kernel-workers selects the simulation kernel for every RTDS-core cluster
// the run builds: 0 (the default) the serial reference engine, N >= 1 the
// conservative parallel kernel with N partitions. The produced tables and
// event counts are identical either way — the flag trades wall-clock time
// only, and running -check with it is a live proof of that invariant.
//
// To profile one experiment, use the toolchain's own flags on its
// sub-benchmark in the root package (any name from the suite works):
//
//	go test -run '^$' -bench 'BenchmarkSuite$/E12' -cpuprofile cpu.pprof .
//	go tool pprof -top cpu.pprof
//
// and go run ./benchmark attributes CPU to each layer.
//
// Usage:
//
//	rtds-bench [-quick] [-md] [-seed N] [-trials N] [-workers N] [-kernel-workers N] [-json] [-out FILE] [-exp SUBSTR]
//	rtds-bench -check BENCH_suite.json [-workers N] [-kernel-workers N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
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
	checkPath := flag.String("check", "", "regression gate: re-run the suite at this baseline's size/seeds and fail on drift")
	kernelWorkers := flag.Int("kernel-workers", 0, "simulation kernel for rtds-core clusters: 0 = serial reference, N = parallel kernel with N partitions (tables are byte-identical)")
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
	if *checkPath != "" {
		// -check re-runs the baseline's suite; a suite flag would be
		// silently ignored, so refuse it loudly instead.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, other := range []string{"json", "out", "md", "exp", "trials", "quick", "seed"} {
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
	var seeds []int64
	for t := 0; t < *trials; t++ {
		seeds = append(seeds, *seed+int64(t))
	}
	tasks := experiments.Tasks(suite, seeds)

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
		rep := experiments.NewBenchReport(size, seeds, results)
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
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiment runs)\n", *outPath, len(rep.Experiments))
	}
	fmt.Fprintf(os.Stderr, "suite completed in %v on %d workers (%d tasks)\n",
		wall.Round(time.Millisecond), *workers, len(tasks))
}

// checkBaseline is the regression gate: re-run the suite exactly as the
// committed baseline describes (size, seeds), then compare every rendered
// table and event count with the baseline's. A baseline with fields this
// report no longer has is refused, not half-compared: regenerate it.
func checkBaseline(path string, workers, kernelWorkers int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var baseline experiments.BenchReport
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&baseline); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if len(baseline.Experiments) == 0 || len(baseline.Seeds) == 0 {
		return fmt.Errorf("baseline %s has no experiments/seeds", path)
	}
	size := experiments.Full
	if baseline.Size == "quick" {
		size = experiments.Quick
	}
	fmt.Fprintf(os.Stderr, "regression gate: re-running the %s suite at seeds %v on %d workers\n",
		baseline.Size, baseline.Seeds, workers)
	start := time.Now()
	results := experiments.RunTasks(size, experiments.Tasks(experiments.Suite(), baseline.Seeds), workers, kernelWorkers)
	wall := time.Since(start)
	if err := experiments.FirstError(results); err != nil {
		return err
	}
	current := experiments.NewBenchReport(size, baseline.Seeds, results)
	if err := experiments.CompareReports(baseline, current); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "regression gate passed: %d experiments match the baseline's tables and event counts in %v\n",
		len(current.Experiments), wall.Round(time.Millisecond))
	return nil
}
