package simnet

import "testing"

// The queue's contract: FIFO order, a Push after Close is dropped, Pop
// drains what was queued before Close and then reports closed, a popped
// item is no longer reachable from the queue's backing array, and a Pop
// blocked on an empty queue is woken by Push and by Close.
func TestFIFOContract(t *testing.T) {
	q := NewFIFO[*int]()
	vals := []int{1, 2, 3}
	for i := range vals {
		q.Push(&vals[i])
	}
	backing := q.items

	if v, ok := q.Pop(); !ok || *v != 1 {
		t.Fatalf("first pop = %v, %v; want 1", v, ok)
	}
	if backing[0] != nil {
		t.Fatal("popped slot still holds its item")
	}

	q.Close()
	late := 4
	q.Push(&late)
	for _, want := range []int{2, 3} {
		if v, ok := q.Pop(); !ok || *v != want {
			t.Fatalf("pop after close = %v, %v; want %d", v, ok, want)
		}
	}
	if v, ok := q.Pop(); ok {
		t.Fatalf("drained closed queue popped %d", *v)
	}

	blocking := NewFIFO[int]()
	got := make(chan int, 1)
	closed := make(chan struct{})
	go func() {
		v, _ := blocking.Pop()
		got <- v
		if _, ok := blocking.Pop(); !ok {
			close(closed)
		}
	}()
	blocking.Push(7)
	if v := <-got; v != 7 {
		t.Fatalf("woken pop = %d, want 7", v)
	}
	blocking.Close()
	<-closed
}
