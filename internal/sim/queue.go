package sim

import (
	"container/heap"
	"math"
)

// Event is one scheduled closure, owned by the Queue that allocated it (or
// by a parallel-kernel outbox on its way to the destination Queue).
type Event struct {
	at     Time
	birth  Time    // virtual time at which the event was scheduled
	origin int32   // site whose execution context scheduled it
	seq    int64   // scheduler-drawn counter: FIFO among otherwise equal keys
	id     EventID // cancellation handle; 0 = fire-and-forget
	fn     func()
	index  int // heap index, -1 when popped/cancelled
}

// eventHeap orders events by (at, birth, origin, seq): the parallel kernel's
// partition-count-independent key (see the par package comment). The serial
// engine schedules with birth = 0, origin = 0 and one global seq, which
// makes the key the (at, scheduling order) of the reference semantics.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
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
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Queue is the event queue both kernels are made of: a heap of pending
// events, the pool their nodes are recycled through, the cancellation index
// of the timers among them, a clock and the pop-and-fire step. The serial
// Engine is one Queue; the parallel kernel is one per partition plus
// outboxes and the window barrier. One goroutine owns a Queue at a time;
// the zero value is ready to use.
type Queue struct {
	pq        eventHeap
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

// Alloc draws an event node from the pool and fills its ordering key. The
// node is not pending until Push (cross-partition events wait in an outbox).
func (q *Queue) Alloc(at, birth Time, origin int32, seq int64, fn func()) *Event {
	if math.IsNaN(at) {
		panic("sim: NaN event time")
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		ev.at, ev.birth, ev.origin, ev.seq, ev.id, ev.fn = at, birth, origin, seq, 0, fn
		return ev
	}
	//lint:allow hotalloc -- pool-miss growth: each node is allocated once, then recycled through q.free
	return &Event{at: at, birth: birth, origin: origin, seq: seq, fn: fn}
}

// Push makes an allocated event pending.
func (q *Queue) Push(ev *Event) { heap.Push(&q.pq, ev) }

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
	heap.Remove(&q.pq, ev.index)
	q.release(ev)
	return true
}

// release returns a popped or cancelled event node to the pool. The closure
// reference is dropped so the pool does not pin caller state.
func (q *Queue) release(ev *Event) {
	ev.fn = nil
	q.free = append(q.free, ev)
}

// Step pops the earliest event of a non-empty queue, advances the clock to
// it and fires it.
//
//lint:hotpath -- the event loop body of both kernels: every simulated event dispatch goes through here
func (q *Queue) Step() {
	ev := heap.Pop(&q.pq).(*Event)
	if ev.id != 0 {
		delete(q.live, ev.id)
	}
	if ev.at < q.now {
		panic("sim: time went backwards") // unreachable by construction
	}
	at, fn := ev.at, ev.fn
	q.release(ev) // fn may schedule and reuse the node; all fields are read
	q.now = at
	q.processed++
	fn()
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
		pq := make(eventHeap, len(q.pq), c/2) //lint:allow hotalloc -- burst-shrink realloc: at most once per 1024 events, only while the heap backing is 4x oversized
		copy(pq, q.pq)
		q.pq = pq
	}
}
