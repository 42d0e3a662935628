package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// ---------------------------------------------------------------------------
// Kernel benchmark: single-run multicore scaling (the BENCH_suite.json
// "kernel" section)

// The storm is a PHOLD-style synthetic workload sized so one run dwarfs the
// per-window barrier cost: thousands of sites, thousands of concurrent
// tokens hopping along real topology edges with the suite's delay
// distribution. Unlike the experiment tables (whose single runs are small),
// this is the regime the parallel kernel exists for — one big simulation on
// many cores.
const (
	stormSites  = 2048
	stormDegree = 4
	stormTokens = 4096
	stormHops   = 250
	stormSeed   = 42
)

// The -check gate's speedup floor: on a machine with at least
// kernelSpeedupCores cores, some sweep point with that many workers must
// reach kernelSpeedupFloor times the serial engine's throughput. Machines
// with fewer cores still run the sweep (determinism is checked everywhere)
// but cannot express the floor, so it does not bind there.
const (
	kernelSpeedupCores = 8
	kernelSpeedupFloor = 4.0
)

// KernelPoint is one measurement of the kernel benchmark: Workers 0 is the
// serial engine, Workers >= 1 the parallel kernel on that many partitions
// (the meaning of core.Config.KernelWorkers).
type KernelPoint struct {
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is EventsPerSec relative to the serial engine (the Workers=0
	// point) of the same run — the parallel kernel at one partition is not
	// the baseline: its smaller heaps read as a "speedup" on a single core.
	// Wall-clock, so only comparable across runs on the same hardware.
	Speedup float64 `json:"speedup"`
}

// KernelBench is the BENCH_suite.json "kernel" section: the parallel
// kernel's single-run scaling curve. Events must be identical at every
// point — the storm is deterministic and the kernel's event order is
// partition-count-independent — and CompareReports enforces it. NumCPU
// records the machine the curve was measured on, so the speedup gate only
// binds where the hardware can express it.
type KernelBench struct {
	Sites     int           `json:"sites"`
	Tokens    int           `json:"tokens"`
	Hops      int           `json:"hops"`
	NumCPU    int           `json:"num_cpu"`
	Lookahead float64       `json:"lookahead"` // at the highest partition count
	CutEdges  int           `json:"cut_edges"` // at the highest partition count
	Points    []KernelPoint `json:"points"`
}

// kernelWorkerPoints is the sweep: the serial engine (0), then partition
// counts in powers of two from 1 up to max(8, NumCPU). The floor of 8 keeps
// the curve meaningful even on small machines — partitions beyond the core
// count cost little (smaller per-partition heaps roughly offset the
// barrier), the event counts they pin are machine-independent, and the top
// point's partition always has a real cut (finite lookahead).
func kernelWorkerPoints() []int {
	top := runtime.NumCPU()
	if top < 8 {
		top = 8
	}
	points := []int{0, 1}
	for p := 2; p < top; p *= 2 {
		points = append(points, p)
	}
	return append(points, top)
}

// runStorm executes the token storm on a fresh kernel (workers as in
// core.Config.KernelWorkers) and reports the events processed and the wall
// time.
func runStorm(topo *graph.Graph, workers int) (int64, time.Duration, error) {
	eng, err := simnet.NewKernel(topo, workers)
	if err != nil {
		return 0, 0, err
	}
	n := topo.Len()
	// Per-site LCG state for neighbor choice: rand-free, partition-owned
	// (only site i's execution context touches state[i]), and independent of
	// the partition count — so the full event trajectory is too.
	state := make([]uint64, n)
	var deliver func(site, remaining int)
	forward := func(from, remaining int) {
		nbs := topo.Neighbors(graph.NodeID(from))
		state[from] = state[from]*6364136223846793005 + 1442695040888963407
		e := nbs[int(state[from]>>33)%len(nbs)]
		to := int(e.To)
		eng.Schedule(from, to, eng.NowOf(from)+e.Delay, func() { deliver(to, remaining) })
	}
	deliver = func(site, remaining int) {
		if remaining > 0 {
			forward(site, remaining-1)
		}
	}
	for i := 0; i < stormTokens; i++ {
		site := i % n
		hops := stormHops
		eng.Schedule(site, site, float64(i)*1e-4, func() { deliver(site, hops) })
	}
	start := time.Now() //lint:allow wallclock -- wall-time measurement of kernel throughput; never enters simulation state
	if err := eng.Run(); err != nil {
		return 0, 0, err
	}
	//lint:allow wallclock -- wall-time measurement of kernel throughput; never enters simulation state
	return eng.Processed(), time.Since(start), nil
}

// RunKernelBench measures the parallel kernel's single-run scaling curve:
// the token storm at every point of kernelWorkerPoints, with the serial
// engine as the speedup baseline. It also asserts the determinism
// invariant directly — every point must process exactly the same number of
// events.
func RunKernelBench() (*KernelBench, error) {
	topo := graph.RandomConnected(stormSites, stormDegree, StdDelays, stormSeed)
	points := kernelWorkerPoints()
	maxP := points[len(points)-1]
	part := topo.Partition(maxP)
	kb := &KernelBench{
		Sites:     stormSites,
		Tokens:    stormTokens,
		Hops:      stormHops,
		NumCPU:    runtime.NumCPU(),
		Lookahead: topo.MinCrossDelay(part),
		CutEdges:  topo.CutEdges(part),
	}
	var baseEvps float64
	for _, w := range points {
		events, wall, err := runStorm(topo, w)
		if err != nil {
			return nil, fmt.Errorf("kernel bench at %d workers: %w", w, err)
		}
		p := KernelPoint{Workers: w, WallSeconds: wall.Seconds(), Events: events}
		if wall > 0 {
			p.EventsPerSec = float64(events) / wall.Seconds()
		}
		if w == 0 {
			baseEvps = p.EventsPerSec
		}
		if baseEvps > 0 {
			p.Speedup = p.EventsPerSec / baseEvps
		}
		if len(kb.Points) > 0 && events != kb.Points[0].Events {
			return nil, fmt.Errorf(
				"kernel bench: %d workers processed %d events, the serial engine processed %d — determinism broken",
				w, events, kb.Points[0].Events)
		}
		kb.Points = append(kb.Points, p)
	}
	return kb, nil
}
