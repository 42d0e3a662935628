// Package par provides the conservative parallel discrete-event kernel: the
// multicore counterpart of internal/sim's serial Engine.
//
// Sites (called origins here) are pinned to partitions; each partition owns
// a sim.Queue (the serial engine's own event heap, pool and clock) and an
// execution thread, so all events of one origin run serially on one
// goroutine — the same per-site serial contract the serial kernel and the
// live transport give the protocol layer.
// Partitions synchronize with conservative time windows: every round the
// coordinator computes the global floor (the minimum next-event time across
// partitions) and lets all partitions run concurrently up to the safe
// horizon floor+lookahead, where the lookahead is the minimum delay of any
// link crossing partitions. An event executing inside the window cannot
// affect another partition sooner than the horizon, so no partition can
// receive an event in its past. Cross-partition events are buffered in
// per-pair outboxes written only by the sending partition during the window
// and merged into the destination heaps at the barrier.
//
// Determinism does not depend on goroutine timing: events are ordered by the
// partition-count-independent key
//
//	(at, birth, origin, seq)
//
// where birth is the virtual time at which the event was scheduled, origin
// is the site whose execution context scheduled it and seq is a per-origin
// monotone counter. The key is a strict total order (seq never repeats per
// origin), so the merged execution order is a pure function of the schedule
// calls — the same at every partition count, including 1. It reproduces the
// serial kernel's (at, scheduling-order) tie-break whenever simultaneous
// events were scheduled at different instants or by the same origin; only
// distinct origins scheduling at the same instant for the same instant can
// order differently, which continuous link delays make a measure-zero
// coincidence (the suite's serial-vs-parallel byte-identity property test
// enforces it empirically).
package par

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// partition is one shard of the simulation: a sim.Queue (event heap, node
// pool, clock and the cancellation index of its own timers). It is owned by
// the partition's worker goroutine during a window and by the coordinator
// between windows (the barrier channels order the handoff).
type partition struct {
	sim.Queue
	limitHit bool
}

// window is one synchronization round's execution bound. Events strictly
// below bound run; with inclusive set (the RunUntil horizon cap) events at
// the bound run too, matching the serial kernel's "process at <= t".
type window struct {
	bound     float64
	inclusive bool
}

// Engine is the conservative parallel kernel. Construct with New; the zero
// value is not ready to use. Schedule/Run/RunUntil must not be interleaved
// from other goroutines while a run is in flight — during a run, scheduling
// is legal only from inside event closures (each closure schedules on
// behalf of the origin whose context it runs in, exactly like the serial
// kernel's single-threaded contract, just one contract per partition).
type Engine struct {
	lookahead  float64
	originPart []int32
	originSeq  []int64
	parts      []*partition
	outbox     [][][]*sim.Event // [src partition][dst partition]
	limit      int64
	running    bool
}

// New builds an engine over a site→partition assignment (typically
// graph.Partition) and the conservative lookahead (typically
// graph.MinCrossDelay of the same assignment). The lookahead must be
// positive — with more than one partition a zero lookahead cannot make
// progress — and is +Inf when nothing crosses partitions, which degenerates
// to a single window per run.
func New(part []int, lookahead float64) (*Engine, error) {
	if len(part) == 0 {
		return nil, fmt.Errorf("par: empty partition assignment")
	}
	nparts := 0
	for origin, p := range part {
		if p < 0 {
			return nil, fmt.Errorf("par: origin %d has negative partition %d", origin, p)
		}
		nparts = max(nparts, p+1)
	}
	if !(lookahead > 0) {
		return nil, fmt.Errorf("par: non-positive lookahead %v", lookahead)
	}
	e := &Engine{
		lookahead:  lookahead,
		originPart: make([]int32, len(part)),
		originSeq:  make([]int64, len(part)),
		parts:      make([]*partition, nparts),
		outbox:     make([][][]*sim.Event, nparts),
	}
	for origin, p := range part {
		e.originPart[origin] = int32(p)
	}
	for p := range e.parts {
		e.parts[p] = &partition{}
		e.outbox[p] = make([][]*sim.Event, nparts)
	}
	return e, nil
}

// Parts reports the number of partitions.
func (e *Engine) Parts() int { return len(e.parts) }

// PartOf reports the partition an origin is pinned to.
func (e *Engine) PartOf(origin int) int { return int(e.originPart[origin]) }

// SetEventLimit bounds the total number of events processed across all Run
// calls, the same livelock backstop as the serial kernel. Because partitions
// only reconcile at window barriers, the run may overshoot the limit by up
// to one window's worth of events before the error surfaces. limit <= 0
// removes the bound.
func (e *Engine) SetEventLimit(limit int64) { e.limit = max(limit, 0) }

// Now reports the engine's clock: the maximum partition clock, which after
// a completed Run equals the timestamp of the last event processed (the
// serial kernel's Now). Only meaningful between runs.
func (e *Engine) Now() float64 {
	now := 0.0
	for _, pt := range e.parts {
		now = max(now, pt.Now())
	}
	return now
}

// NowOf reports the clock of the origin's partition: the virtual time an
// event closure running in that origin's execution context observes.
func (e *Engine) NowOf(origin int) float64 { return e.parts[e.originPart[origin]].Now() }

// Processed reports how many events have fired so far, across partitions.
func (e *Engine) Processed() int64 {
	var total int64
	for _, pt := range e.parts {
		total += pt.Processed()
	}
	return total
}

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int {
	total := 0
	for _, pt := range e.parts {
		total += pt.Len()
	}
	return total
}

// alloc draws an event node from a partition's pool and fills the ordering
// key: birth is that partition's clock, seq comes from the scheduling
// origin's counter, which only that origin's partition touches, so the
// increment needs no synchronization. The node is a closure event when fn is
// non-nil, else the delivery h(from, to, p).
func (e *Engine) alloc(pt *partition, from, to int, at float64, fn func(), h sim.Delivery, p any) *sim.Event {
	if at < pt.Now() {
		panic(fmt.Sprintf("par: scheduling event in the past: t=%v now=%v", at, pt.Now()))
	}
	e.originSeq[from]++
	if fn != nil {
		return pt.Alloc(at, pt.Now(), int32(from), e.originSeq[from], fn)
	}
	return pt.AllocDelivery(at, pt.Now(), int32(from), e.originSeq[from], h, int32(from), int32(to), p)
}

// Schedule enqueues fn to run at absolute virtual time at in the execution
// context of origin to, scheduled by origin from. During a run it must be
// called from from's own execution context (an event closure of from's
// partition); between runs any goroutine may call it, serially.
func (e *Engine) Schedule(from, to int, at float64, fn func()) {
	e.schedule(from, to, at, fn, nil, nil)
}

// Deliver enqueues the call h(from, to, p) under Schedule's contract. The
// message rides the event node, so a delivery allocates nothing; the node is
// filled here, in the sender's context, before it can reach an outbox, and
// is read only by the receiving partition after the barrier.
func (e *Engine) Deliver(from, to int, at float64, h sim.Delivery, p any) {
	e.schedule(from, to, at, nil, h, p)
}

// schedule is the one body of Schedule and Deliver. Events for another
// partition are buffered in the sender's outbox and merged at the next
// barrier — conservativeness demands they be at least one lookahead away,
// which holds by construction when at = now + link delay and is checked
// here.
//
//lint:hotpath -- every simulated message delivery and timer is scheduled through here
func (e *Engine) schedule(from, to int, at float64, fn func(), h sim.Delivery, pl any) {
	p := e.originPart[from]
	q := e.originPart[to]
	src := e.parts[p]
	if !e.running {
		// Pre-run (bootstrap sends, arrival submissions, membership arming):
		// single-threaded, all clocks aligned; push straight into the
		// destination heap.
		dst := e.parts[q]
		dst.Push(e.alloc(dst, from, to, at, fn, h, pl))
		return
	}
	ev := e.alloc(src, from, to, at, fn, h, pl)
	if p == q {
		src.Push(ev)
		return
	}
	if at < src.Now()+e.lookahead {
		panic(fmt.Sprintf(
			"par: cross-partition event inside the lookahead window: t=%v now=%v lookahead=%v",
			at, src.Now(), e.lookahead))
	}
	e.outbox[p][q] = append(e.outbox[p][q], ev)
}

// ScheduleCancellable enqueues fn to run at absolute time at in origin's own
// execution context and returns a cancel function reporting whether the
// event was still pending. Timers never cross partitions — an origin arms
// and cancels only its own — so the cancellation index is partition-local.
func (e *Engine) ScheduleCancellable(origin int, at float64, fn func()) func() bool {
	pt := e.parts[e.originPart[origin]]
	ev := e.alloc(pt, origin, origin, at, fn, nil, nil)
	id := pt.Track(ev)
	pt.Push(ev)
	return func() bool { return pt.Cancel(id) }
}

// runWindow executes one partition's share of a synchronization window: pop
// and fire events below the bound.
//
//lint:hotpath -- the partition step loop: every simulated event dispatch goes through here
func (pt *partition) runWindow(e *Engine, w window) {
	for pt.Len() > 0 {
		if at := pt.NextAt(); at > w.bound || (at == w.bound && !w.inclusive) {
			return
		}
		if e.limit > 0 && pt.Processed() >= e.limit {
			// Local backstop against a livelock that never leaves this
			// partition (zero-delay local event chains never exhaust a
			// window); the barrier reconciles the global count.
			pt.limitHit = true
			return
		}
		pt.Step()
	}
}

// Run processes events until every queue drains or the event limit trips.
// On success every partition clock is advanced to the global maximum — the
// serial kernel's single Now — so scheduling between runs observes one
// aligned clock regardless of which partition fired the last event.
func (e *Engine) Run() error {
	if err := e.run(math.Inf(1)); err != nil {
		return err
	}
	e.alignClocks(e.Now())
	return nil
}

// RunUntil processes events with timestamps <= t, then advances every
// partition clock to t (even where no event fired), matching the serial
// kernel's RunUntil.
func (e *Engine) RunUntil(t float64) error {
	for _, pt := range e.parts {
		if t < pt.Now() {
			return fmt.Errorf("par: RunUntil(%v) is in the past (now=%v)", t, pt.Now())
		}
	}
	if err := e.run(t); err != nil {
		return err
	}
	e.alignClocks(t)
	return nil
}

func (e *Engine) alignClocks(t float64) {
	for _, pt := range e.parts {
		pt.SetNow(t)
	}
}

// run is the coordinator: spawn one worker per partition, then loop
// synchronization windows — compute the global floor, broadcast the safe
// bound, wait for the barrier, merge the outboxes — until no event at or
// below the horizon remains.
func (e *Engine) run(horizon float64) error {
	if e.running {
		return fmt.Errorf("par: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	// One partition needs no workers or barriers: its windows run inline,
	// the same loop in the same event order (the ordering key is
	// partition-count-independent). This is also the shape lossy fault
	// plans collapse to.
	dispatch := func(w window) { e.parts[0].runWindow(e, w) }
	if nparts := len(e.parts); nparts > 1 {
		cmds := make([]chan window, nparts)
		var winWG, runWG sync.WaitGroup
		for p := range cmds {
			cmds[p] = make(chan window)
			runWG.Add(1)
			go func(p int) {
				defer runWG.Done()
				for w := range cmds[p] {
					e.parts[p].runWindow(e, w)
					winWG.Done()
				}
			}(p)
		}
		defer func() {
			for _, c := range cmds {
				close(c)
			}
			runWG.Wait()
		}()
		dispatch = func(w window) {
			winWG.Add(nparts)
			for _, c := range cmds {
				c <- w
			}
			winWG.Wait()
		}
	}
	for {
		w, ok := e.nextWindow(horizon)
		if !ok {
			return nil
		}
		dispatch(w)
		if err := e.mergeBarrier(); err != nil {
			return err
		}
	}
}

// nextWindow computes the next synchronization window under the horizon:
// bound floor+lookahead exclusive, capped at the horizon inclusive (the
// serial kernel's RunUntil processes events at exactly t). ok is false when
// no pending event is due at or below the horizon.
func (e *Engine) nextWindow(horizon float64) (window, bool) {
	floor := math.Inf(1)
	for _, pt := range e.parts {
		if pt.Len() > 0 && pt.NextAt() < floor {
			floor = pt.NextAt()
		}
	}
	if floor > horizon || math.IsInf(floor, 1) {
		return window{}, false
	}
	if b := floor + e.lookahead; b <= horizon {
		return window{bound: b}, true
	}
	return window{bound: horizon, inclusive: true}, true
}

// mergeBarrier folds every outbox into its destination heap and reconciles
// the global event count against the limit. Merge order (destination-major,
// source ascending, append order within a pair) does not matter for the
// event order — the key is a strict total order — only for reproducibility
// of heap internals; it is fixed anyway.
func (e *Engine) mergeBarrier() error {
	limitHit := false
	for q, pt := range e.parts {
		for p := range e.parts {
			box := e.outbox[p][q]
			for i, ev := range box {
				pt.Push(ev)
				box[i] = nil
			}
			e.outbox[p][q] = box[:0]
		}
		if pt.limitHit {
			limitHit = true
		}
	}
	if limitHit || (e.limit > 0 && e.Processed() >= e.limit && e.Pending() > 0) {
		return sim.ErrEventLimit
	}
	return nil
}
