package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// heapKey is the queue's ordering key, kept by the test's reference model.
type heapKey struct {
	at, birth Time
	origin    int32
	seq       int64
}

func (a heapKey) less(b heapKey) bool {
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

// TestHeapPropertySortedPops drives one Queue with random interleavings of
// Alloc/AllocDelivery, Push, Track, Cancel and Step and checks that every
// Step fires exactly the minimum (at, birth, origin, seq) of what is
// pending — including after cancels of interior entries, which exercise
// removeAt's sift in both directions. Keys are drawn from a small grid so
// every component of the tie-break decides some comparison.
func TestHeapPropertySortedPops(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var seq int64
		pending := map[heapKey]EventID{} // 0 = fire-and-forget
		var tracked []heapKey
		var fired heapKey
		deliver := Delivery(func(from, to int32, p any) { fired = p.(heapKey) })
		steps, cancels := 0, 0
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				seq++
				k := heapKey{
					at:     q.Now() + Time(rng.Intn(4)),
					birth:  Time(rng.Intn(2)),
					origin: int32(rng.Intn(3)),
					seq:    seq,
				}
				var ev *Event
				if rng.Intn(2) == 0 {
					ev = q.Alloc(k.at, k.birth, k.origin, k.seq, func() { fired = k })
				} else {
					ev = q.AllocDelivery(k.at, k.birth, k.origin, k.seq, deliver, 0, 0, k)
				}
				var id EventID
				if rng.Intn(3) == 0 {
					id = q.Track(ev)
					tracked = append(tracked, k)
				}
				q.Push(ev)
				pending[k] = id
			case r < 7: // cancel a random tracked event, pending or not
				if len(tracked) == 0 {
					continue
				}
				i := rng.Intn(len(tracked))
				k := tracked[i]
				tracked = append(tracked[:i], tracked[i+1:]...)
				id, stillPending := pending[k]
				if !stillPending {
					continue // fired already: its id is gone from the index
				}
				if !q.Cancel(id) {
					t.Fatalf("seed %d: cancel of pending %+v reported not pending", seed, k)
				}
				if q.Cancel(id) {
					t.Fatalf("seed %d: second cancel of %+v reported pending", seed, k)
				}
				delete(pending, k)
				cancels++
			default: // step
				if q.Len() == 0 {
					continue
				}
				var want heapKey
				first := true
				for k := range pending {
					if first || k.less(want) {
						want, first = k, false
					}
				}
				if q.NextAt() != want.at {
					t.Fatalf("seed %d: NextAt %v, want %v", seed, q.NextAt(), want.at)
				}
				q.Step()
				if fired != want {
					t.Fatalf("seed %d op %d: fired %+v, want %+v", seed, op, fired, want)
				}
				delete(pending, want)
				steps++
			}
			if q.Len() != len(pending) {
				t.Fatalf("seed %d: Len %d, model %d", seed, q.Len(), len(pending))
			}
		}
		// Drain: what is left pops in exactly sorted order.
		rest := make([]heapKey, 0, len(pending))
		for k := range pending {
			rest = append(rest, k)
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].less(rest[j]) })
		for _, want := range rest {
			q.Step()
			if fired != want {
				t.Fatalf("seed %d drain: fired %+v, want %+v", seed, fired, want)
			}
		}
		if steps == 0 || cancels == 0 {
			t.Fatalf("seed %d: degenerate run (%d steps, %d cancels)", seed, steps, cancels)
		}
	}
}

// TestCancelledAndPoppedIndex pins the cancellation handle contract: index
// is -1 once an event left the heap, by either door.
func TestCancelledAndPoppedIndex(t *testing.T) {
	var q Queue
	a := q.Alloc(1, 0, 0, 1, func() {})
	b := q.Alloc(2, 0, 0, 2, func() {})
	c := q.Alloc(3, 0, 0, 3, func() {})
	id := q.Track(b)
	for _, ev := range []*Event{c, a, b} {
		q.Push(ev)
	}
	if a.index != 0 {
		t.Fatalf("minimum sits at heap index %d", a.index)
	}
	if !q.Cancel(id) || b.index != -1 {
		t.Fatalf("cancelled event keeps index %d", b.index)
	}
	q.Step()
	if a.index != -1 {
		t.Fatalf("popped event keeps index %d", a.index)
	}
}

// TestReleaseDropsPayload: a recycled node must not pin the message (or the
// closure) it carried.
func TestReleaseDropsPayload(t *testing.T) {
	var q Queue
	ev := q.AllocDelivery(1, 0, 0, 1, func(int32, int32, any) {}, 0, 1, "payload")
	q.Push(ev)
	q.Step()
	if ev.payload != nil || ev.deliver != nil || ev.fn != nil {
		t.Fatalf("pooled node still references payload=%v deliver=%v fn=%v", ev.payload, ev.deliver != nil, ev.fn != nil)
	}
}
