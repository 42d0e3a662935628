package simnet

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/sim/par"
)

// Kernel is what the DES transport needs from a discrete-event engine, and
// what a caller that built the transport keeps to drive virtual time. Both
// *sim.Engine (one partition, one clock) and *par.Engine satisfy it. Sites
// are pinned to partitions; during a run a site schedules only from its own
// execution context.
type Kernel interface {
	// Now is the engine-wide clock (meaningful between runs); NowOf the
	// clock a site's execution context observes.
	Now() float64
	NowOf(site int) float64
	// Schedule runs fn at absolute time at in site to's context on behalf
	// of site from, fire-and-forget. ScheduleCancellable runs it in the
	// site's own context; the cancel reports whether fn was still pending
	// and is valid only from that context.
	Schedule(from, to int, at float64, fn func())
	ScheduleCancellable(site int, at float64, fn func()) func() bool
	// Deliver is Schedule for a message: h(from, to, p) runs at time at in
	// site to's context. The message rides the kernel's pooled event node,
	// so a delivery allocates nothing (h is long-lived, p already boxed).
	Deliver(from, to int, at float64, h sim.Delivery, p any)
	// Parts and PartOf expose the site-to-partition pinning.
	Parts() int
	PartOf(site int) int
	// SetEventLimit bounds the events processed across all runs.
	SetEventLimit(limit int64)
	Run() error
	RunUntil(t float64) error
	Processed() int64
}

var (
	_ Kernel = (*sim.Engine)(nil)
	_ Kernel = (*par.Engine)(nil)
)

// NewKernel builds the event kernel for a simulated topology: the serial
// reference engine for workers <= 0, else the parallel kernel on min(workers,
// sites) topology-aware partitions, lookahead the minimum cross-partition delay.
func NewKernel(topo *graph.Graph, workers int) (Kernel, error) {
	if workers <= 0 {
		return sim.New(), nil
	}
	part := topo.Partition(workers)
	k, err := par.New(part, topo.MinCrossDelay(part))
	if err != nil {
		return nil, fmt.Errorf("simnet: parallel kernel: %w", err)
	}
	return k, nil
}

// DES is the deterministic transport over a discrete-event kernel. A Send
// routes partition-local traffic straight into the sender partition's own
// event queue and cross-partition traffic through the kernel's outboxes,
// which the barrier merges with a partition-count-independent ordering key
// — so the delivered event order on the parallel kernel matches the serial
// engine byte-for-byte for the same seed (see the par package comment). On
// the serial engine there is one partition and none of this costs anything.
//
// Statistics are recorded on per-partition shards of one parent Stats
// (Stats.Shard), keeping concurrent partitions off each other's mutex.
//
// Fault plans: crash windows are pure functions of (site, time) and are
// evaluated without touching the plan's sequential random source, so they
// parallelize. Loss and jitter draw from that one source in global send
// order, which no parallel execution can reproduce; such plans need a
// single partition (internal/core collapses to one worker), and SetFaults
// enforces it.
//
// A message in flight is the payload field of a kernel event node (see
// Kernel.Deliver), not a closure: a hop allocates nothing here. The payload
// object itself is handed over untouched — a sent payload belongs to the
// receiver, and the sender must not touch it after Send.
type DES struct {
	kernel   Kernel
	topo     *graph.Graph
	handlers []Handler
	deliver  sim.Delivery // d.dispatch, bound once: every in-flight message names it
	stats    *Stats
	shard    []*Stats // per site: its partition's shard
	faults   *Injector
}

// NewDES builds a DES transport over the topology. The caller drives the
// simulation through the kernel's Run or RunUntil.
func NewDES(kernel Kernel, topo *graph.Graph) *DES {
	stats := NewStats()
	byPart := make([]*Stats, kernel.Parts())
	for p := range byPart {
		byPart[p] = stats.Shard()
	}
	shard := make([]*Stats, topo.Len())
	for site := range shard {
		shard[site] = byPart[kernel.PartOf(site)]
	}
	d := &DES{
		kernel:   kernel,
		topo:     topo,
		handlers: make([]Handler, topo.Len()),
		stats:    stats,
		shard:    shard,
	}
	d.deliver = d.dispatch
	return d
}

// dispatch fires one delivery event: the receiving site's handler runs in
// its own execution context.
func (d *DES) dispatch(from, to int32, p any) {
	h := d.handlers[to]
	if h == nil {
		panic(fmt.Sprintf("simnet: no handler attached at node %d", to))
	}
	h(graph.NodeID(from), p.(Payload))
}

// Attach implements Transport.
func (d *DES) Attach(id graph.NodeID, h Handler) {
	if d.handlers[id] != nil {
		panic(fmt.Sprintf("simnet: handler for node %d attached twice", id))
	}
	d.handlers[id] = h
}

// SetFaults implements Transport. Crash-only plans run at any partition
// count; lossy plans require a single partition, where every Send observes
// the injector in a deterministic order and runs of the same plan and
// traffic are byte-identical.
func (d *DES) SetFaults(plan FaultPlan, epoch float64) {
	if (plan.Loss > 0 || plan.MaxJitter > 0) && d.kernel.Parts() > 1 {
		panic("simnet: loss/jitter fault plans require a single-partition kernel")
	}
	d.faults = NewInjector(plan, epoch)
}

// Send implements Transport. It runs in the sending site's execution
// context (its partition's goroutine), so the partition clock, the per-site
// scheduling counters and the partition's stats shard are all touched
// race-free.
//
//lint:hotpath -- one call per link traversal: the DES's unit cost
func (d *DES) Send(from, to graph.NodeID, p Payload) error {
	delay, err := d.topo.EdgeDelay(from, to)
	if err != nil {
		return fmt.Errorf("simnet: send %s from %d to non-neighbor %d", p.Kind(), from, to) //lint:allow hotalloc -- protocol-bug error path: sites only send to neighbours
	}
	sh := d.shard[from]
	now := d.kernel.NowOf(int(from))
	if d.faults != nil {
		// Crash windows are evaluated purely; loss and jitter draw in global
		// send order, on a single partition by construction (see SetFaults).
		var dropped bool
		if delay, dropped = d.faults.Perturb(from, to, now, delay); dropped {
			sh.Drop()
			return nil
		}
	}
	sh.RecordEdge(from, to, p)
	// Deliveries are fire-and-forget: the protocol never cancels an in-flight
	// message, so they skip the kernel's cancellation index.
	d.kernel.Deliver(int(from), int(to), now+delay, d.deliver, p)
	return nil
}

// After implements Transport: fn runs in node id's own execution context,
// and the returned cancel is valid only from that same context (timers
// never cross partitions).
func (d *DES) After(id graph.NodeID, delay float64, fn func()) CancelFunc {
	if delay < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", delay))
	}
	return d.kernel.ScheduleCancellable(int(id), d.kernel.NowOf(int(id))+delay, fn)
}

// Now implements Transport: the engine-wide clock, meaningful between runs.
func (d *DES) Now() float64 { return d.kernel.Now() }

// NowOf implements Transport: the clock of node id's partition.
func (d *DES) NowOf(id graph.NodeID) float64 { return d.kernel.NowOf(int(id)) }

// Stats implements Transport: the aggregate of the per-partition shards.
func (d *DES) Stats() *Stats { return d.stats }

var _ Transport = (*DES)(nil)
