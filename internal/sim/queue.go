package sim

import "math"

// Delivery is the long-lived function a delivery event calls: the transport
// creates one when it is built and every message it sends names it, so a
// hop costs no closure.
type Delivery func(from, to int32, p any)

// Event is one scheduled piece of work, owned by the Queue that allocated it
// (or by a parallel-kernel outbox on its way to the destination Queue). It
// is either a closure (fn) or a message delivery that rides the node itself
// (deliver, from, to, payload): the dominant event class costs no
// allocation beyond the pooled node.
type Event struct {
	at     Time
	birth  Time    // virtual time at which the event was scheduled
	seq    int64   // scheduler-drawn counter: FIFO among otherwise equal keys
	id     EventID // cancellation handle; 0 = fire-and-forget
	fn     func()  // nil on a delivery event
	origin int32   // site whose execution context scheduled it
	index  int32   // heap index, -1 when popped/cancelled

	deliver  Delivery
	from, to int32
	payload  any
}

// less orders events by (at, birth, origin, seq): the parallel kernel's
// partition-count-independent key (see the par package comment). The serial
// engine schedules with birth = 0, origin = 0 and one global seq, which
// makes the key the (at, scheduling order) of the reference semantics. The
// key is a strict total order, so the pop sequence does not depend on the
// heap's shape.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birth != b.birth {
		return a.birth < b.birth
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// Queue is the event queue both kernels are made of: a heap of pending
// events, the pool their nodes are recycled through, the cancellation index
// of the timers among them, a clock and the pop-and-fire step. The serial
// Engine is one Queue; the parallel kernel is one per partition plus
// outboxes and the window barrier. One goroutine owns a Queue at a time;
// the zero value is ready to use.
type Queue struct {
	pq        []*Event // binary min-heap on less; the only heap in this package
	free      []*Event // recycled event nodes
	live      map[EventID]*Event
	nextID    EventID
	now       Time
	processed int64
}

// Now reports the queue's clock: the timestamp of the last event fired, or
// what SetNow advanced it to (the end of a RunUntil, the parallel kernel
// aligning its partitions between runs).
func (q *Queue) Now() Time     { return q.now }
func (q *Queue) SetNow(t Time) { q.now = t }

// Processed reports how many events have fired so far.
func (q *Queue) Processed() int64 { return q.processed }

// Len reports how many events are scheduled but not yet fired.
func (q *Queue) Len() int { return len(q.pq) }

// NextAt reports the earliest pending timestamp of a non-empty queue.
func (q *Queue) NextAt() Time { return q.pq[0].at }

// node draws an event node from the pool and fills its ordering key.
func (q *Queue) node(at, birth Time, origin int32, seq int64) *Event {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		ev.at, ev.birth, ev.origin, ev.seq, ev.id = at, birth, origin, seq, 0
		return ev
	}
	//lint:allow hotalloc -- pool-miss growth: each node is allocated once, then recycled through q.free
	return &Event{at: at, birth: birth, origin: origin, seq: seq}
}

// Alloc draws a closure event from the pool. The node is not pending until
// Push (cross-partition events wait in an outbox).
func (q *Queue) Alloc(at, birth Time, origin int32, seq int64, fn func()) *Event {
	if math.IsNaN(at) {
		panic("sim: NaN event time")
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := q.node(at, birth, origin, seq) //lint:allow hotalloc -- node's pool-miss growth, inlined here
	ev.fn = fn
	return ev
}

// AllocDelivery draws a delivery event from the pool: firing it calls
// deliver(from, to, p). The node carries the message, so nothing else is
// allocated for it; p is dropped when the node returns to the pool.
//
//lint:hotpath -- every simulated message delivery is allocated through here
func (q *Queue) AllocDelivery(at, birth Time, origin int32, seq int64, deliver Delivery, from, to int32, p any) *Event {
	if math.IsNaN(at) {
		panic("sim: NaN event time")
	}
	if deliver == nil {
		panic("sim: nil delivery function")
	}
	ev := q.node(at, birth, origin, seq) //lint:allow hotalloc -- node's pool-miss growth, inlined here
	ev.deliver, ev.from, ev.to, ev.payload = deliver, from, to, p
	return ev
}

// Push makes an allocated event pending.
func (q *Queue) Push(ev *Event) {
	ev.index = int32(len(q.pq))
	q.pq = append(q.pq, ev)
	q.up(int(ev.index))
}

// up sifts the entry at i toward the root and reports whether it moved.
func (q *Queue) up(i int) bool {
	pq := q.pq
	ev := pq[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		p := pq[parent]
		if !less(ev, p) {
			break
		}
		pq[i] = p
		p.index = int32(i)
		i = parent
	}
	pq[i] = ev
	ev.index = int32(i)
	return i != start
}

// down sifts the entry at i toward the leaves and reports whether it moved.
func (q *Queue) down(i int) bool {
	pq := q.pq
	n := len(pq)
	ev := pq[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		child := pq[c]
		if r := c + 1; r < n && less(pq[r], child) {
			c, child = r, pq[r]
		}
		if !less(child, ev) {
			break
		}
		pq[i] = child
		child.index = int32(i)
		i = c
	}
	pq[i] = ev
	ev.index = int32(i)
	return i != start
}

// removeAt takes the entry at heap index i out of the heap: the last entry
// moves into its slot and is sifted down and, if that did not move it, up
// (an interior removal can violate the order in either direction).
func (q *Queue) removeAt(i int) *Event {
	pq := q.pq
	ev := pq[i]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = nil
	q.pq = pq[:n]
	if i != n {
		pq[i] = last
		last.index = int32(i)
		if !q.down(i) {
			q.up(i)
		}
	}
	ev.index = -1
	return ev
}

// Track enters an event into the cancellation index and returns its handle.
// Fire-and-forget events skip it: message deliveries, the dominant event
// class, never cancel, and tracking costs a map insert + delete per event.
func (q *Queue) Track(ev *Event) EventID {
	if q.live == nil {
		q.live = make(map[EventID]*Event)
	}
	q.nextID++
	ev.id = q.nextID
	q.live[ev.id] = ev
	return ev.id
}

// Cancel removes a tracked event. It reports whether the event was still
// pending (false if it already fired or was cancelled).
func (q *Queue) Cancel(id EventID) bool {
	ev, ok := q.live[id]
	if !ok {
		return false
	}
	delete(q.live, id)
	q.release(q.removeAt(int(ev.index)))
	return true
}

// release returns a popped or cancelled event node to the pool. The closure
// and payload references are dropped so the pool does not pin caller state.
func (q *Queue) release(ev *Event) {
	ev.fn, ev.deliver, ev.payload = nil, nil, nil
	q.free = append(q.free, ev)
}

// Step pops the earliest event of a non-empty queue, advances the clock to
// it and fires it.
//
//lint:hotpath -- the event loop body of both kernels: every simulated event dispatch goes through here
func (q *Queue) Step() {
	ev := q.removeAt(0)
	if ev.id != 0 {
		delete(q.live, ev.id)
	}
	if ev.at < q.now {
		panic("sim: time went backwards") // unreachable by construction
	}
	// The event may schedule and reuse the node: read every field first.
	at, fn := ev.at, ev.fn
	deliver, from, to, p := ev.deliver, ev.from, ev.to, ev.payload
	q.release(ev)
	q.now = at
	q.processed++
	if fn != nil {
		fn()
	} else {
		deliver(from, to, p)
	}
	q.maybeShrink()
}

// poolMin is the capacity below which the shrink heuristics never fire;
// steady-state simulations stay under it and pay nothing.
const poolMin = 1 << 10

// maybeShrink caps the memory a burst leaves pinned: a flood-heavy bootstrap
// can balloon the free pool and the heap's backing array to hundreds of
// thousands of entries that the steady state never needs again, and neither
// ever shrinks on its own (release only appends; Pop only reslices). Checked
// once every 1024 events: surplus pooled nodes are released to the garbage
// collector once the pool dwarfs the pending queue, and the pool and heap
// backing arrays are reallocated at half capacity once their lengths fall
// below a quarter of capacity.
func (q *Queue) maybeShrink() {
	if q.processed&1023 != 0 {
		return
	}
	if n := len(q.free); n > poolMin && n > 4*(len(q.pq)+1) {
		for i := n / 2; i < n; i++ {
			q.free[i] = nil
		}
		q.free = q.free[:n/2]
	}
	if c := cap(q.free); c > poolMin && len(q.free) < c/4 {
		q.free = append(make([]*Event, 0, c/2), q.free...) //lint:allow hotalloc -- burst-shrink realloc: at most once per 1024 events, only while the pool is 4x oversized
	}
	if c := cap(q.pq); c > poolMin && len(q.pq) < c/4 {
		pq := make([]*Event, len(q.pq), c/2) //lint:allow hotalloc -- burst-shrink realloc: at most once per 1024 events, only while the heap backing is 4x oversized
		copy(pq, q.pq)
		q.pq = pq
	}
}
