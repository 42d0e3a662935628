// Command rtds-sim runs one configurable simulation: a topology, a sporadic
// workload, and a scheduling scheme picked from the scheme registry,
// reporting the guarantee ratio, rejection breakdown and communication cost
// on stdout, and its wall time and simulated events/sec on stderr.
// -kernel-workers selects the simulation kernel of RTDS-core schemes as in
// rtds-bench; stdout is byte-identical at every setting.
//
// Example:
//
//	rtds-sim -sites 32 -topo random -scheme rtds -radius 3 -load 0.8 -tightness 2.5 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/workload"
)

func main() {
	var (
		sites      = flag.Int("sites", 32, "number of sites")
		topoKind   = flag.String("topo", "random", "topology: ring|line|star|clique|grid|torus|hypercube|tree|random|geometric")
		schemeName = flag.String("scheme", "rtds", "scheduling scheme: "+strings.Join(scheme.Names(), "|"))
		radius     = flag.Int("radius", 3, "computing-sphere hop radius h (core schemes)")
		load       = flag.Float64("load", 0.6, "offered load (total work / capacity)")
		tightness  = flag.Float64("tightness", 2.5, "deadline = tightness x critical path")
		horizon    = flag.Float64("horizon", 400, "arrival horizon (virtual time)")
		taskSize   = flag.Int("tasks", 8, "approximate tasks per job")
		seed       = flag.Int64("seed", 1, "random seed")
		preempt    = flag.Bool("preemptive", false, "preemptive local scheduler (§13, core schemes)")
		verbose    = flag.Bool("v", false, "print per-job outcomes (core schemes)")
		traceLog   = flag.Bool("trace", false, "print the protocol event timeline (core schemes)")
		kernelW    = flag.Int("kernel-workers", 0, "simulation kernel for core schemes: 0 = serial reference, N = parallel kernel with N partitions")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	s, ok := scheme.Get(*schemeName)
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q; have %s", *schemeName, strings.Join(scheme.Names(), ", ")))
	}

	topo, err := graph.Generate(graph.TopologyKind(*topoKind), *sites, experiments.StdDelays, *seed)
	if err != nil {
		fatal(err)
	}

	// The suite's standard workload shape, with the task-size and tightness
	// flags layered on top.
	spec := experiments.StdSpec(topo.Len(), *horizon, *seed)
	spec.TaskSize = *taskSize
	spec.Tightness = *tightness
	arrivals, err := experiments.ArrivalsForLoad(spec, *load)
	if err != nil {
		fatal(err)
	}

	// Tune runs after the scheme's base config; overriding the radius
	// unconditionally would clobber bases that fix it (broadcast sets
	// Radius = N), so -radius applies only when explicitly given.
	effRadius := 0
	start := time.Now()
	cluster, err := s.Build(topo, scheme.Config{
		Horizon:       *horizon,
		KernelWorkers: *kernelW,
		Tune: func(cfg *core.Config) {
			if explicit["radius"] {
				cfg.Radius = *radius
			}
			cfg.Preemptive = *preempt
			cfg.TraceEvents = *traceLog
			effRadius = cfg.Radius
		},
	})
	if err != nil {
		fatal(err)
	}
	for _, a := range arrivals {
		if err := cluster.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			fatal(err)
		}
	}
	if err := cluster.Run(); err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("scheme: %s — %s\n", s.Name(), s.Description())
	if effRadius > 0 {
		fmt.Printf("topology: %s, %d sites, %d links; sphere radius h=%d\n",
			*topoKind, topo.Len(), topo.NumEdges(), effRadius)
	} else {
		fmt.Printf("topology: %s, %d sites, %d links\n", *topoKind, topo.Len(), topo.NumEdges())
	}
	fmt.Printf("workload: %d jobs, offered load %.2f (realized %.2f), tightness %.2f\n",
		len(arrivals), *load, workload.OfferedLoad(arrivals, topo.Len(), *horizon), *tightness)
	if b, ok := cluster.(scheme.Bootstrapper); ok {
		msgs, bytes := b.BootstrapCost()
		fmt.Printf("bootstrap: %d messages, %d bytes (one-time PCS construction)\n", msgs, bytes)
	}
	res := cluster.Summarize()
	if res.Core != nil {
		fmt.Println(*res.Core)
	} else {
		fmt.Printf("jobs=%d ratio=%.3f msgs=%d bytes=%d msgs/job=%.1f\n",
			res.Jobs, res.GuaranteeRatio, res.Messages, res.Bytes, res.MessagesPerJob)
	}
	if cb, ok := cluster.(scheme.CoreBacked); ok {
		if *verbose {
			for _, j := range cb.Core().Jobs() {
				fmt.Printf("  %-12s %-22s arrival=%8.2f decided=%8.2f acs=%d procs=%d\n",
					j.ID, j.Outcome.String()+"/"+string(j.RejectStage), j.Arrival, j.DecisionAt, j.ACSSize, j.NumProcs)
			}
		}
		if *traceLog {
			for _, e := range cb.Core().Events() {
				fmt.Println(e)
			}
		}
	}
	perSec := 0.0
	if wall > 0 {
		perSec = float64(cluster.EventsProcessed()) / wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "completed in %v (%d events, %.0f events/sec)\n",
		wall.Round(time.Millisecond), cluster.EventsProcessed(), perSec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
