package simnet

import "sync"

// FIFO is an unbounded FIFO queue with blocking Pop, so producers never
// deadlock on full buffers whatever the traffic pattern. The wall-clock
// transports (Live here, wire.NetTransport) run each site's handlers off
// one.
type FIFO[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
}

// NewFIFO returns an empty open queue.
func NewFIFO[T any]() *FIFO[T] {
	f := &FIFO[T]{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Push appends v; after Close it is dropped.
func (f *FIFO[T]) Push(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.items = append(f.items, v)
	f.cond.Signal()
}

// Pop blocks for the oldest item. After Close it drains what was pushed
// before and then reports false.
func (f *FIFO[T]) Pop() (T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.items) == 0 && !f.closed {
		f.cond.Wait()
	}
	var zero T
	if len(f.items) == 0 {
		return zero, false
	}
	v := f.items[0]
	// Re-slicing alone keeps the popped item (a closure and the payload it
	// captured) reachable from the backing array until the slice next grows.
	f.items[0] = zero
	f.items = f.items[1:]
	return v, true
}

// Close wakes every blocked Pop and makes later Pushes no-ops.
func (f *FIFO[T]) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	f.cond.Broadcast()
}
