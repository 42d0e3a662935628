package simnet

//lint:file-allow wallclock -- Live is the wall-clock transport half of simnet: mapping virtual delay onto real goroutine sleeps is its entire purpose; determinism is the DES transport's job

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/wallclock"
)

// Live is a transport backed by real goroutines and channels: one goroutine
// per site serializes that site's message handling, and one goroutine per
// directed link models propagation delay while preserving per-link FIFO
// order. Virtual-time unit 1.0 maps to Scale of wall-clock time. Each link
// waits out its delay on its own wallclock.Alarm, parked in the netpoller
// without holding a thread, so a hop costs its delay plus about 10 µs
// rather than the whole millisecond a Go timer rounds it up to.
//
// Live exists to run the protocol under genuine concurrency; experiments use
// the deterministic DES transport.
type Live struct {
	topo  *graph.Graph
	scale time.Duration
	start time.Time
	stats *Stats

	mu       sync.Mutex
	handlers map[graph.NodeID]Handler
	links    map[[2]graph.NodeID]*liveLink
	nodes    map[graph.NodeID]*liveNode
	faults   *faultState
	started  bool
	closed   bool
	torndown chan struct{} // closed once the teardown (queue close) is done

	pending atomic.Int64 // in-flight messages + handlers + pending timers
	wg      sync.WaitGroup
}

// closeDrainGrace bounds how long Close waits for in-flight traffic to
// drain before tearing the goroutines down. A transport that has already
// quiesced pays only a few polling intervals.
const closeDrainGrace = 250 * time.Millisecond

type liveNode struct {
	inbox *FIFO[func()]
}

type liveLink struct {
	delay time.Duration
	queue *FIFO[linkItem]
	alarm *wallclock.Alarm // only the link's goroutine sets and waits on it
}

type linkItem struct {
	deliverAt time.Time
	deliver   func()
}

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
		links:    make(map[[2]graph.NodeID]*liveLink),
		nodes:    make(map[graph.NodeID]*liveNode),
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

// Start launches the per-node and per-link goroutines and starts the clock.
func (l *Live) Start() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		panic("simnet: Start called twice")
	}
	if l.closed {
		panic("simnet: Start after Close")
	}
	l.started = true
	l.start = time.Now()
	for id := graph.NodeID(0); int(id) < l.topo.Len(); id++ {
		n := &liveNode{inbox: NewFIFO[func()]()}
		l.nodes[id] = n
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for {
				fn, ok := n.inbox.Pop()
				if !ok {
					return
				}
				fn()
				l.pending.Add(-1)
			}
		}()
		for _, e := range l.topo.Neighbors(id) {
			alarm, err := wallclock.NewAlarm()
			if err != nil {
				panic(fmt.Sprintf("simnet: link %d->%d: %v", id, e.To, err))
			}
			lk := &liveLink{
				delay: time.Duration(e.Delay * float64(l.scale)),
				queue: NewFIFO[linkItem](),
				alarm: alarm,
			}
			l.links[[2]graph.NodeID{id, e.To}] = lk
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				for {
					it, ok := lk.queue.Pop()
					if !ok {
						return
					}
					if d := time.Until(it.deliverAt); d > 0 {
						lk.alarm.Set(d)
						if !lk.alarm.Wait() {
							return // torn down
						}
					}
					it.deliver()
				}
			}()
		}
	}
}

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
	lk, ok := l.links[[2]graph.NodeID{from, to}]
	node := l.nodes[to]
	h := l.handlers[to]
	faults := l.faults
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("simnet: send %s from %d to non-neighbor %d", p.Kind(), from, to)
	}
	if h == nil {
		return fmt.Errorf("simnet: no handler attached at node %d", to)
	}
	delay := lk.delay
	if faults != nil {
		base := float64(lk.delay) / float64(l.scale)
		jittered, dropped := faults.perturb(from, to, l.Now(), base)
		if dropped {
			l.stats.Drop()
			return nil
		}
		delay = time.Duration(jittered * float64(l.scale))
	}
	l.stats.RecordEdge(from, to, p)
	l.pending.Add(1)
	lk.queue.Push(linkItem{
		deliverAt: time.Now().Add(delay),
		deliver: func() {
			node.inbox.Push(func() { h(from, p) })
		},
	})
	return nil
}

// After implements Transport: fn runs on node id's goroutine after delay.
func (l *Live) After(id graph.NodeID, delay float64, fn func()) CancelFunc {
	l.mu.Lock()
	node := l.nodes[id]
	l.mu.Unlock()
	if node == nil {
		panic(fmt.Sprintf("simnet: After on unknown node %d", id))
	}
	var cancelled atomic.Bool
	l.pending.Add(1)
	timer := time.AfterFunc(time.Duration(delay*float64(l.scale)), func() {
		if cancelled.Load() {
			l.pending.Add(-1)
			return
		}
		node.inbox.Push(func() {
			if !cancelled.Load() {
				fn()
			}
		})
	})
	return func() bool {
		was := cancelled.Swap(true)
		if !was && timer.Stop() {
			// The callback will never run; release its pending slot here.
			l.pending.Add(-1)
		}
		return !was
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
// deliveries are given a bounded grace period to drain, then the per-node
// and per-link goroutines are torn down. Close is idempotent and safe to
// call from several goroutines concurrently — every call blocks until the
// teardown has completed, whichever call performed it, so a caller
// returning from Close may safely free or reuse the sites behind the
// handlers. Traffic that outlives the grace period is dropped; call
// WaitIdle first if delivery matters.
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
	if first {
		// Drain: messages already on a link — and the handler work they
		// trigger — complete instead of vanishing mid-cascade. Bounded, so
		// a cluster with far-future timers still closes promptly.
		l.WaitIdle(closeDrainGrace)
		l.mu.Lock()
		for _, n := range l.nodes {
			n.inbox.Close()
		}
		for _, lk := range l.links {
			lk.queue.Close()
			lk.alarm.Close()
		}
		l.mu.Unlock()
		close(l.torndown)
	} else {
		<-l.torndown
	}
	l.wg.Wait()
}

var _ Transport = (*Live)(nil)
