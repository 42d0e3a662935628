package simnet

//lint:file-allow wallclock -- the process's wall-clock timer queue: reading and waiting on real time is its entire purpose; determinism is the DES transport's job

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/wallclock"
)

// Clock is the process's one wall-clock timer queue: every wait of the
// process's wall-clock transports (wire.NetTransport) is an entry in it —
// protocol timers (After) and outbound frames (PostTo). It is a sim.Queue
// keyed by (due, seq) behind a mutex, one wallclock.Alarm armed for the
// head of the queue and one dispatcher goroutine. So entries due at the
// same instant come due in the order they were queued, by construction;
// the process wakes about 10 µs after each due time, whatever the number
// of sites, links and timers, and holds no thread while it waits; and a
// timer's cancel handle is its event id, which once the timer has fired
// pins neither its function nor a runtime timer.
//
// At each wake the dispatcher pops everything due and then, outside the
// lock and in queue order, pushes each timer onto its inbox and hands each
// frame to its Batcher; last, it flushes every Batcher that took one.
// An inbox push does not block and a Batcher must not either, so no site
// or peer can hold up anyone else's timers.
//
// AcquireClock hands out the process's clock, starting it for the first
// transport; the last transport to Close stops it.
type Clock struct {
	mu       sync.Mutex
	q        sim.Queue              // due times in nanoseconds since epoch
	seq      int64                  // queueing order: the tie-break among equal due times
	inflight map[sim.EventID]*event // timers popped onto an inbox that has not run them yet
	armed    sim.Time               // the due time the alarm is set for; +Inf while it is not set
	epoch    time.Time
	alarm    *wallclock.Alarm
	collect  sim.Delivery // c.pop, bound once: every queue entry names it
	wg       sync.WaitGroup

	// The dispatcher's own: what one wake popped, and the Batchers it fed.
	fired   []*event
	flushes []Batcher
}

// A Batcher takes the frames queued for it with PostTo as they come due, on
// the dispatcher goroutine: Add for each, in queue order, reporting whether
// it is the first since the last Flush, then one Flush once the dispatcher
// has handed out everything due at that wake. Neither may block.
type Batcher interface {
	Add(frame []byte) (first bool)
	Flush()
}

// event is what one queue entry does when it comes due: run timer fn on
// inbox, or hand frame to batch.
type event struct {
	id    sim.EventID // a timer's handle; zero for a frame
	inbox *FIFO[func()]
	fn    func()
	batch Batcher
	frame []byte
}

// processClock is the clock every wall-clock transport of the process shares.
var processClock struct {
	mu    sync.Mutex
	clock *Clock
	users int
}

// AcquireClock returns the process's clock, starting it if no transport
// holds it. Each call must be paired with one Release.
func AcquireClock() (*Clock, error) {
	processClock.mu.Lock()
	defer processClock.mu.Unlock()
	if processClock.clock == nil {
		alarm, err := wallclock.NewAlarm()
		if err != nil {
			return nil, fmt.Errorf("simnet: clock: %w", err)
		}
		c := &Clock{inflight: make(map[sim.EventID]*event), armed: math.Inf(1), epoch: time.Now(), alarm: alarm}
		c.collect = c.pop
		c.wg.Add(1)
		go c.dispatch()
		processClock.clock = c
	}
	processClock.users++
	return processClock.clock, nil
}

// Release gives back one AcquireClock. The last release stops the
// dispatcher and returns once it has exited; entries still queued are
// dropped, and the clock accepts and ignores later calls.
func (c *Clock) Release() {
	processClock.mu.Lock()
	processClock.users--
	last := processClock.users == 0
	if last {
		processClock.clock = nil
	}
	processClock.mu.Unlock()
	if last {
		c.alarm.Close()
		c.wg.Wait()
	}
}

// After queues fn to run on inbox d from now and returns its handle for
// Cancel.
func (c *Clock) After(inbox *FIFO[func()], d time.Duration, fn func()) sim.EventID {
	return c.add(d, &event{inbox: inbox, fn: fn})
}

// PostTo queues frame for b d from now.
func (c *Clock) PostTo(b Batcher, d time.Duration, frame []byte) {
	c.add(d, &event{batch: b, frame: frame})
}

// Cancel stops timer id from running. It reports whether the timer was
// still to run, and whether it had already been pushed onto its inbox,
// which will skip it (so a caller counting what its inbox owes knows who
// settles the count).
func (c *Clock) Cancel(id sim.EventID) (cancelled, queued bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.q.Cancel(id) {
		return true, false
	}
	_, queued = c.inflight[id]
	delete(c.inflight, id)
	return queued, queued
}

func (c *Clock) add(d time.Duration, ev *event) sim.EventID {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := float64(time.Since(c.epoch))
	return c.addAt(now, now+float64(d), ev)
}

// addAt queues ev at time at, never before the last entry popped, gives a
// timer its id, and re-arms the alarm if ev is the new head. Callers hold
// c.mu.
func (c *Clock) addAt(now, at sim.Time, ev *event) sim.EventID {
	at = max(at, c.q.Now())
	c.seq++
	qe := c.q.AllocDelivery(at, 0, 0, c.seq, c.collect, 0, 0, ev)
	c.q.Push(qe)
	if ev.batch == nil {
		ev.id = c.q.Track(qe)
	}
	if at < c.armed {
		c.armed = at
		c.alarm.Set(time.Duration(at - now))
	}
	return ev.id
}

// pop is every entry's delivery, called by sim.Queue.Step under c.mu.
func (c *Clock) pop(_, _ int32, p any) {
	ev := p.(*event)
	if ev.id != 0 {
		c.inflight[ev.id] = ev
	}
	c.fired = append(c.fired, ev)
}

// dispatch is the dispatcher goroutine: pop what is due, arm the alarm for
// the new head, hand the popped entries out, and wait for the alarm.
func (c *Clock) dispatch() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		now := float64(time.Since(c.epoch))
		for c.q.Len() > 0 && c.q.NextAt() <= now {
			c.q.Step()
		}
		c.armed = math.Inf(1)
		if c.q.Len() > 0 {
			c.armed = c.q.NextAt()
			c.alarm.Set(time.Duration(c.armed - now))
		}
		c.mu.Unlock()
		c.handOut()
		if !c.alarm.Wait() {
			return // released
		}
	}
}

// handOut runs the popped entries' actions in queue order, then flushes
// the Batchers that took frames.
func (c *Clock) handOut() {
	for i, ev := range c.fired {
		c.fired[i] = nil
		if ev.batch != nil {
			if ev.batch.Add(ev.frame) {
				c.flushes = append(c.flushes, ev.batch)
			}
			continue
		}
		run := func() {
			if c.forget(ev.id) { // else it was cancelled after it was popped
				ev.fn()
			}
		}
		if !ev.inbox.Push(run) {
			c.forget(ev.id) // the inbox is closed and will never run it
		}
	}
	c.fired = c.fired[:0]
	for i, b := range c.flushes {
		c.flushes[i] = nil
		b.Flush()
	}
	c.flushes = c.flushes[:0]
}

// forget takes a popped timer out of the in-flight set and reports whether
// it was there.
func (c *Clock) forget(id sim.EventID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.inflight[id]
	delete(c.inflight, id)
	return ok
}
