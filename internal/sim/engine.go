// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock (float64, arbitrary time units) and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in scheduling order (a monotone sequence number breaks ties), so a
// simulation driven from a single goroutine is fully deterministic.
//
// The kernel is intentionally minimal: an event is a closure, or a message
// delivery — a long-lived handler, two site ids and a payload — stored in
// the event node itself, so the dominant event class of the layers above
// (internal/simnet's link traversals) costs no allocation. Higher layers
// (internal/simnet, internal/core) build message passing and protocol state
// machines on top of it.
//
// Queue is the one event-queue implementation: a concrete binary heap over
// *Event (the only heap in this package), node pool, cancellation index,
// burst-shrink policy and the pop-and-fire step. Engine,
// the serial kernel, is one Queue. internal/sim/par holds the multicore
// counterpart: a conservative (lookahead-windowed) parallel kernel that is
// one Queue per partition plus outboxes and a window barrier, and
// reproduces this engine's event order bit-for-bit for the workloads the
// suite runs (see the par package comment for the ordering argument). The
// serial engine remains the reference semantics.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual time. Units are abstract; the rest of the
// repository treats them as the same unit the paper uses for communication
// delays and computational complexities.
type Time = float64

// EventID identifies a scheduled event so it can be cancelled.
// The zero EventID is never issued.
type EventID int64

// ErrEventLimit is returned by Run/RunUntil when the engine processed more
// events than the configured limit, which almost always indicates a protocol
// livelock in the layers above.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Engine is the serial discrete-event engine — the reference semantics: one
// Queue whose events all carry birth 0 and origin 0, ordered by (at, global
// scheduling order).
type Engine struct {
	q       Queue
	seq     int64
	limit   int64 // 0 = unlimited
	running bool
}

// New returns an engine with the virtual clock at 0.
func New() *Engine { return &Engine{} }

// SetEventLimit bounds the total number of events the engine will process
// across all Run calls. limit <= 0 removes the bound.
func (e *Engine) SetEventLimit(limit int64) { e.limit = max(limit, 0) }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.q.Now() }

// Processed reports how many events have fired so far.
func (e *Engine) Processed() int64 { return e.q.Processed() }

// nextSeq validates an event time and draws its scheduling-order key.
func (e *Engine) nextSeq(t Time) int64 {
	if t < e.q.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: t=%v now=%v", t, e.q.now))
	}
	e.seq++
	return e.seq
}

// schedule validates and enqueues one closure event.
func (e *Engine) schedule(t Time, fn func()) *Event {
	ev := e.q.Alloc(t, 0, 0, e.nextSeq(t), fn)
	e.q.Push(ev)
	return ev
}

// At schedules fn to run at absolute virtual time t and returns an ID that
// can cancel it. Scheduling in the past panics: it is always a logic error
// in the layers above, and silently clamping would mask causality bugs.
func (e *Engine) At(t Time, fn func()) EventID { return e.q.Track(e.schedule(t, fn)) }

// AtFixed schedules fn to run at absolute virtual time t with no way to
// cancel it: fire-and-forget events skip the cancellation index (see
// Queue.Track).
//
//lint:hotpath -- fire-and-forget scheduling carries every simulated message delivery
func (e *Engine) AtFixed(t Time, fn func()) { e.schedule(t, fn) }

// AfterFixed schedules fn to run d time units from now with no cancellation
// handle (see AtFixed). Negative d panics.
func (e *Engine) AfterFixed(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtFixed(e.q.now+d, fn)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already fired or was cancelled). Only events created
// by At can be cancelled; AtFixed/AfterFixed events have no ID.
func (e *Engine) Cancel(id EventID) bool { return e.q.Cancel(id) }

// NowOf, Schedule, Deliver, ScheduleCancellable, Parts and PartOf are the
// per-site view the DES transport programs against (simnet.Kernel, see
// par.Engine): here every site shares the one clock, the one queue and
// partition 0.

func (e *Engine) NowOf(site int) Time                       { return e.q.now }
func (e *Engine) Schedule(from, to int, at Time, fn func()) { e.AtFixed(at, fn) }

// Deliver schedules the fire-and-forget call h(from, to, p) at absolute
// virtual time at. The message rides the event node: nothing is allocated.
//
//lint:hotpath -- every simulated message delivery on the serial kernel is scheduled through here
func (e *Engine) Deliver(from, to int, at Time, h Delivery, p any) {
	e.q.Push(e.q.AllocDelivery(at, 0, 0, e.nextSeq(at), h, int32(from), int32(to), p))
}
func (e *Engine) ScheduleCancellable(site int, at Time, fn func()) func() bool {
	id := e.At(at, fn)
	return func() bool { return e.Cancel(id) }
}
func (e *Engine) Parts() int          { return 1 }
func (e *Engine) PartOf(site int) int { return 0 }

// run is the event loop: pop and fire events with timestamps <= horizon.
//
//lint:hotpath -- the serial event loop: every simulated event dispatch goes through here
func (e *Engine) run(horizon Time) error {
	if e.running {
		return errors.New("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.q.Len() > 0 && e.q.NextAt() <= horizon {
		if e.limit > 0 && e.q.processed >= e.limit {
			return ErrEventLimit
		}
		e.q.Step()
	}
	return nil
}

// Run processes events until the queue drains or the event limit trips.
func (e *Engine) Run() error { return e.run(math.Inf(1)) }

// RunUntil processes events with timestamps <= t, then advances the clock to
// t (even if no event fired exactly there). Events scheduled during the run
// are honoured if they fall within the horizon.
func (e *Engine) RunUntil(t Time) error {
	if t < e.q.now {
		return fmt.Errorf("sim: RunUntil(%v) is in the past (now=%v)", t, e.q.now)
	}
	if err := e.run(t); err != nil {
		return err
	}
	e.q.SetNow(t)
	return nil
}
