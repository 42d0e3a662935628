package simnet

//lint:file-allow wallclock -- Live is the wall-clock transport half of simnet: mapping virtual delay onto real time is its entire purpose; determinism is the DES transport's job

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Live is a transport backed by real goroutines: one goroutine per site
// serializes that site's message handling and timers. Virtual-time unit 1.0
// maps to Scale of wall-clock time. Every wait — a link's propagation delay
// and a timer alike — is an entry in the process Clock, so a hop costs its
// delay plus about 10 µs rather than the whole millisecond a Go timer rounds
// it up to, and a delivery and a timer due at the same instant reach the
// site in the order they were made. Without an armed FaultPlan's jitter a
// link's delay is fixed, so each link stays FIFO.
//
// Live exists to run the protocol under genuine concurrency; experiments use
// the deterministic DES transport.
type Live struct {
	topo  *graph.Graph
	scale time.Duration
	start time.Time
	stats *Stats
	clock *Clock

	mu       sync.Mutex
	handlers map[graph.NodeID]Handler
	inboxes  []*FIFO[func()] // per site, from Start
	faults   *faultState
	started  bool
	closed   bool
	torndown chan struct{} // closed once the teardown is done

	pending atomic.Int64 // in-flight messages + handlers + pending timers
	wg      sync.WaitGroup
}

// closeDrainGrace bounds how long Close waits for in-flight traffic to
// drain before tearing the goroutines down. A transport that has already
// quiesced pays only a few polling intervals.
const closeDrainGrace = 250 * time.Millisecond

// NewLive builds a live transport. scale is the wall-clock duration of one
// virtual time unit (e.g. time.Millisecond). Call Attach for every node,
// then Start; finish with Close.
func NewLive(topo *graph.Graph, scale time.Duration) *Live {
	if scale <= 0 {
		scale = time.Millisecond
	}
	return &Live{
		topo:     topo,
		scale:    scale,
		stats:    NewStats(),
		handlers: make(map[graph.NodeID]Handler),
		torndown: make(chan struct{}),
	}
}

// Attach implements Transport. All Attach calls must precede Start.
func (l *Live) Attach(id graph.NodeID, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		panic("simnet: Attach after Start")
	}
	if _, dup := l.handlers[id]; dup {
		panic(fmt.Sprintf("simnet: handler for node %d attached twice", id))
	}
	l.handlers[id] = h
}

// Start acquires the process Clock, launches the per-site goroutines and
// starts the virtual clock.
func (l *Live) Start() {
	clock, err := AcquireClock()
	if err != nil {
		panic(err)
	}
	l.mu.Lock()
	if l.started || l.closed {
		l.mu.Unlock()
		clock.Release()
		panic("simnet: Start called twice, or after Close")
	}
	defer l.mu.Unlock()
	l.clock = clock
	l.started = true
	l.start = time.Now()
	l.inboxes = make([]*FIFO[func()], l.topo.Len())
	for id := range l.inboxes {
		inbox := NewFIFO[func()]()
		l.inboxes[id] = inbox
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for {
				fn, ok := inbox.Pop()
				if !ok {
					return
				}
				fn()
				l.pending.Add(-1)
			}
		}()
	}
}

// wall converts a virtual delay to wall-clock time.
func (l *Live) wall(d float64) time.Duration { return time.Duration(d * float64(l.scale)) }

// SetFaults implements Transport. Unlike the DES, real concurrency makes
// the live transport's loss/jitter draws depend on goroutine interleaving;
// the plan still bounds behaviour (loss rate, jitter range, crash windows)
// but runs are not reproducible — the live transport never was.
func (l *Live) SetFaults(plan FaultPlan, epoch float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = newFaultState(plan, epoch)
}

// Send implements Transport. On a closed (or closing) transport the message
// is silently dropped instead of failing: a handler still draining when
// Close is called must be able to finish its send cascade without
// panicking the protocol layer, whose Send errors are wiring bugs.
func (l *Live) Send(from, to graph.NodeID, p Payload) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if !l.started {
		l.mu.Unlock()
		return fmt.Errorf("simnet: live transport not running")
	}
	h := l.handlers[to]
	faults := l.faults
	l.mu.Unlock()
	delay, err := l.topo.EdgeDelay(from, to)
	if err != nil {
		return fmt.Errorf("simnet: send %s from %d to non-neighbor %d", p.Kind(), from, to)
	}
	if h == nil {
		return fmt.Errorf("simnet: no handler attached at node %d", to)
	}
	if faults != nil {
		var dropped bool
		if delay, dropped = faults.perturb(from, to, l.Now(), delay); dropped {
			l.stats.Drop()
			return nil
		}
	}
	l.stats.RecordEdge(from, to, p)
	l.pending.Add(1)
	l.clock.Post(l.inboxes[to], l.wall(delay), func() { h(from, p) })
	return nil
}

// After implements Transport: fn runs on node id's goroutine after delay.
// The cancel handle holds the timer's id, not fn.
func (l *Live) After(id graph.NodeID, delay float64, fn func()) CancelFunc {
	l.mu.Lock()
	started := l.started
	l.mu.Unlock()
	if !started || int(id) < 0 || int(id) >= len(l.inboxes) {
		panic(fmt.Sprintf("simnet: After on unknown node %d", id))
	}
	l.pending.Add(1)
	ev := l.clock.After(l.inboxes[id], l.wall(delay), fn)
	return func() bool {
		cancelled, queued := l.clock.Cancel(ev)
		if cancelled && !queued {
			l.pending.Add(-1) // it never reaches the inbox, whose loop would settle it
		}
		return cancelled
	}
}

// Now implements Transport: elapsed wall time in virtual units.
func (l *Live) Now() float64 {
	return float64(time.Since(l.start)) / float64(l.scale)
}

// NowOf implements Transport: every node reads the one wall clock.
func (l *Live) NowOf(graph.NodeID) float64 { return l.Now() }

// Topology implements Transport.
func (l *Live) Topology() *graph.Graph { return l.topo }

// Stats implements Transport.
func (l *Live) Stats() *Stats { return l.stats }

// WaitIdle blocks until no messages, handlers or timers are pending (the
// distributed computation has quiesced), or the timeout elapses. It reports
// whether quiescence was reached.
func (l *Live) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) {
		if l.pending.Load() == 0 {
			stable++
			if stable >= 3 {
				return true
			}
		} else {
			stable = 0
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// Close shuts the transport down: new Sends are dropped, in-flight
// deliveries are given a bounded grace period to drain, then the per-site
// goroutines are torn down and the process Clock released. Close is
// idempotent and safe to call from several goroutines concurrently — every
// call blocks until the teardown has completed, whichever call performed
// it, so a caller returning from Close may safely free or reuse the sites
// behind the handlers. Traffic that outlives the grace period is dropped;
// call WaitIdle first if delivery matters.
func (l *Live) Close() {
	l.mu.Lock()
	if !l.started {
		// Nothing ever ran; just make future Start/Send refusals permanent.
		l.closed = true
		l.mu.Unlock()
		return
	}
	first := !l.closed
	l.closed = true
	l.mu.Unlock()
	if !first {
		<-l.torndown
		return
	}
	// Drain: messages already on a link — and the handler work they
	// trigger — complete instead of vanishing mid-cascade. Bounded, so a
	// cluster with far-future timers still closes promptly.
	l.WaitIdle(closeDrainGrace)
	for _, inbox := range l.inboxes {
		inbox.Close()
	}
	l.wg.Wait()
	l.clock.Release()
	close(l.torndown)
}

var _ Transport = (*Live)(nil)
