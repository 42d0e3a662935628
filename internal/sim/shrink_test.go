package sim

import (
	"runtime"
	"testing"
)

// burst floods the engine with pending events well past poolMin, drains
// them, then runs a long steady-state trickle so maybeShrink gets its
// periodic checks with a near-empty queue.
func burst(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.AtFixed(e.Now()+float64(i)*1e-6, func() {})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	// Steady state: one self-rescheduling tick, enough iterations to pass
	// several shrink checkpoints and let the capacities converge.
	left := 8 * 1024
	var tick func()
	tick = func() {
		if left--; left > 0 {
			e.AfterFixed(0.001, tick)
		}
	}
	e.AfterFixed(0.001, tick)
	if err := e.Run(); err != nil {
		panic(err)
	}
}

func TestBurstReleasesRetainedCapacity(t *testing.T) {
	const flood = 256 * 1024
	e := New()
	burst(e, flood)
	if got := cap(e.q.pq); got >= flood/4 {
		t.Errorf("heap backing retains cap %d after burst of %d; want shrunk below %d", got, flood, flood/4)
	}
	if got := len(e.q.free); got >= flood/4 {
		t.Errorf("free pool retains %d nodes after burst of %d; want shrunk below %d", got, flood, flood/4)
	}
	if got := cap(e.q.free); got >= flood/4 {
		t.Errorf("free pool backing retains cap %d after burst of %d; want shrunk below %d", got, flood, flood/4)
	}
}

// TestBurstReleasesHeapMemory asserts the shrink is visible to the runtime,
// not just to len/cap arithmetic: after the burst drains, the engine must
// not pin the flood's worth of event nodes (~64 bytes each) against the
// garbage collector.
func TestBurstReleasesHeapMemory(t *testing.T) {
	const flood = 256 * 1024
	baseline := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := baseline()
	e := New()
	burst(e, flood)
	after := baseline()
	runtime.KeepAlive(e)

	// The flood allocates >16 MiB of event nodes plus backing arrays. With
	// the shrink in place the engine retains well under an eighth of that;
	// without it, pool + heap backing alone hold on to all of it.
	const budget = 4 << 20
	if after > before+budget {
		t.Errorf("engine retains %d bytes of heap after burst (budget %d)", after-before, budget)
	}
}
