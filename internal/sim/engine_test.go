package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	e := New()
	if err := e.Run(); err != nil {
		t.Fatalf("Run on empty engine: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(5, func() { got = append(got, 5) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("final clock %v, want 5", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := New()
	var times []Time
	e.AfterFixed(2, func() {
		times = append(times, e.Now())
		e.AfterFixed(3, func() {
			times = append(times, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 2 || times[1] != 5 {
		t.Fatalf("nested timers fired at %v, want [2 5]", times)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	id := e.At(1, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel of pending event returned false")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	id := e.At(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Cancel(id) {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, e.At(Time(i), func() { got = append(got, i) }))
	}
	e.Cancel(ids[4])
	e.Cancel(ids[7])
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []Time
	for _, ti := range []Time{1, 2, 3, 4, 5} {
		ti := ti
		e.At(ti, func() { got = append(got, ti) })
	}
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) fired %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("clock %v after RunUntil(3)", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("remaining events did not fire: %v", got)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	if err := e.RunUntil(42); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 42 {
		t.Fatalf("clock %v, want 42", e.Now())
	}
	if err := e.RunUntil(41); err == nil {
		t.Fatal("RunUntil into the past did not error")
	}
}

func TestEventLimit(t *testing.T) {
	e := New()
	e.SetEventLimit(10)
	var bomb func()
	bomb = func() { e.AfterFixed(1, bomb) } // infinite chain
	e.AfterFixed(1, bomb)
	if err := e.Run(); err != ErrEventLimit {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	if e.Processed() != 10 {
		t.Fatalf("processed %d, want 10", e.Processed())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative AfterFixed did not panic")
		}
	}()
	e.AfterFixed(-1, func() {})
}

// Property: for any set of event times, events fire in nondecreasing time
// order and the engine's clock equals each event's scheduled time when it
// fires.
func TestPropertyMonotoneClock(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fireTimes []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, func() {
				if e.Now() != at {
					t.Errorf("clock %v at event scheduled for %v", e.Now(), at)
				}
				fireTimes = append(fireTimes, at)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !sort.Float64sAreSorted(fireTimes) {
			return false
		}
		return len(fireTimes) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset removes exactly that subset.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		e := New()
		n := 1 + rng.Intn(100)
		fired := make([]bool, n)
		ids := make([]EventID, n)
		for i := 0; i < n; i++ {
			i := i
			ids[i] = e.At(Time(rng.Intn(50)), func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				if !e.Cancel(ids[i]) {
					t.Fatal("cancel of pending event failed")
				}
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				t.Fatalf("trial %d event %d fired=%v cancelled=%v", trial, i, fired[i], cancelled[i])
			}
		}
	}
}

func TestFixedEventsInterleaveWithCancellable(t *testing.T) {
	e := New()
	var got []int
	e.AtFixed(2, func() { got = append(got, 2) })
	id := e.At(1, func() { got = append(got, 1) })
	e.AtFixed(3, func() { got = append(got, 3) })
	e.At(4, func() { got = append(got, 4) })
	_ = id
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestFixedSimultaneousFIFOAcrossKinds(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		if i%2 == 0 {
			e.AtFixed(7, func() { got = append(got, i) })
		} else {
			e.At(7, func() { got = append(got, i) })
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("mixed simultaneous events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestAfterFixedNesting(t *testing.T) {
	e := New()
	var times []Time
	e.AfterFixed(2, func() {
		times = append(times, e.Now())
		e.AfterFixed(3, func() { times = append(times, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 2 || times[1] != 5 {
		t.Fatalf("nested fixed timers fired at %v, want [2 5]", times)
	}
}

// Recycled event nodes must never resurrect a fired event's cancellation
// handle: a stale ID must not cancel a newer event that reused the node.
func TestPooledNodesDoNotAliasCancellation(t *testing.T) {
	e := New()
	var fired []string
	id1 := e.At(1, func() { fired = append(fired, "a") })
	if err := e.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	// id1's node is back in the pool; the next event reuses it.
	e.At(3, func() { fired = append(fired, "b") })
	if e.Cancel(id1) {
		t.Fatal("stale ID cancelled a recycled event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Fatalf("fired %v, want [a b]", fired)
	}
}

func TestNegativeAfterFixedPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative AfterFixed did not panic")
		}
	}()
	e.AfterFixed(-1, func() {})
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures sustained events/sec on the dominant
// workload shape: a long chain of fire-and-forget deliveries (one event
// schedules the next), which is what simnet message traffic looks like.
func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	remaining := b.N
	var step func()
	step = func() {
		if remaining--; remaining > 0 {
			e.AfterFixed(1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.AfterFixed(1, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineThroughputCancellable is the same chain through the
// tracked At path, for comparison against the fixed path.
func BenchmarkEngineThroughputCancellable(b *testing.B) {
	e := New()
	remaining := b.N
	var step func()
	step = func() {
		if remaining--; remaining > 0 {
			e.At(e.Now()+1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.At(1, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
