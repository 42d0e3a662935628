package wire

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// pair starts two transports joined by one link of the given delay in
// milliseconds (Scale is a millisecond per virtual unit); frames site 1
// receives go to the returned channel.
func pair(t *testing.T, delayMS float64) ([]*NetTransport, chan core.DoneMsg) {
	t.Helper()
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, delayMS)
	trs := startTransports(t, topo, time.Millisecond)
	got := make(chan core.DoneMsg, 1024)
	trs[0].Attach(0, func(graph.NodeID, simnet.Payload) {})
	trs[1].Attach(1, func(_ graph.NodeID, p simnet.Payload) { got <- p.(core.DoneMsg) })
	for _, tr := range trs {
		tr.Start()
	}
	return trs, got
}

// medianHop reports the median one-way delivery time of n frames sent one
// at a time from site 0 to site 1, spaced so that each is alone on the link.
func medianHop(t *testing.T, trs []*NetTransport, got chan core.DoneMsg, n int) time.Duration {
	t.Helper()
	// The first frame dials the connection; it is not a hop to time.
	if err := trs[0].Send(0, 1, core.DoneMsg{Job: "warm"}); err != nil {
		t.Fatal(err)
	}
	<-got
	took := make([]time.Duration, n)
	for i := range took {
		start := time.Now()
		if err := trs[0].Send(0, 1, core.DoneMsg{Job: "hop", Task: dag.TaskID(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never delivered", i)
		}
		took[i] = time.Since(start)
		time.Sleep(time.Millisecond)
	}
	slices.Sort(took)
	return took[n/2]
}

// A hop costs its emulated delay, not the millisecond an idle process's
// timer rounds a sub-millisecond wait up to: frames sent one at a time
// over a 200 µs link arrive a median of well under 600 µs after Send.
func TestNetTransportHopLatency(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the precise alarm is a timerfd; elsewhere a hop is timer-paced")
	}
	trs, got := pair(t, 0.2)
	defer trs[0].Close()
	defer trs[1].Close()
	if med := medianHop(t, trs, got, 121); med < 200*time.Microsecond || med >= 600*time.Microsecond {
		t.Errorf("one-way delivery over a 200µs link: median %v, want in [200µs, 600µs)", med)
	}
}

// A long link waits on the same clock as a short one, so it too costs its
// delay and not up to a millisecond more: over 2.5 ms and 3 ms links the
// median one-way delivery is under the delay plus 400 µs. (A Go timer
// sleeps out a wait in whole-millisecond epoll timeouts, which stretches
// a 2.5 ms hop to about 3.1 ms.)
func TestNetTransportCoarseScaleHop(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the precise alarm is a timerfd; elsewhere a hop is timer-paced")
	}
	for _, delayMS := range []float64{2.5, 3} {
		trs, got := pair(t, delayMS)
		delay := time.Duration(delayMS * float64(time.Millisecond))
		if med := medianHop(t, trs, got, 51); med < delay || med >= delay+400*time.Microsecond {
			t.Errorf("one-way delivery over a %v link: median %v, want in [%v, %v)", delay, med, delay, delay+400*time.Microsecond)
		}
		trs[0].Close()
		trs[1].Close()
	}
}

// Frames sent back to back on one link arrive in send order and all of
// them arrive.
func TestNetTransportBackToBackFIFO(t *testing.T) {
	trs, got := pair(t, 0.3)
	defer trs[0].Close()
	defer trs[1].Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := trs[0].Send(0, 1, core.DoneMsg{Job: "fifo", Task: dag.TaskID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for want := dag.TaskID(0); want < n; want++ {
		select {
		case m := <-got:
			if m.Task != want {
				t.Fatalf("frame %d arrived in position %d", m.Task, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never delivered", want)
		}
	}
}

// Close while a frame waits on the clock for its due time returns at once,
// whether the wait is short or long, and leaves no goroutine behind: the
// last transport to close stops the clock's dispatcher.
func TestNetTransportCloseDuringShortWait(t *testing.T) {
	for _, delayMS := range []float64{1.9, 50} {
		before := runtime.NumGoroutine()
		trs, got := pair(t, delayMS)
		if err := trs[0].Send(0, 1, core.DoneMsg{Job: "warm"}); err != nil {
			t.Fatal(err)
		}
		<-got
		if err := trs[0].Send(0, 1, core.DoneMsg{Job: "pending"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond) // the frame is waiting now
		start := time.Now()
		trs[0].Close()
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%vms link: Close during a wait took %v", delayMS, took)
		}
		trs[1].Close()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%vms link: %d goroutines after Close, %d before", delayMS, n, before)
		}
	}
}

// A frame due before the one the clock is waiting for re-arms the clock's
// alarm and goes out at its own due time, not after the wait: in the median
// round, a frame due in 200 µs queued while the clock waits 20 ms for
// another arrives within a millisecond.
func TestPeerEarlierFrameRearms(t *testing.T) {
	trs, got := pair(t, 20)
	defer trs[0].Close()
	defer trs[1].Close()
	if err := trs[0].Send(0, 1, core.DoneMsg{Job: "warm"}); err != nil {
		t.Fatal(err)
	}
	<-got
	early, err := Encode(core.DoneMsg{Job: "early"})
	if err != nil {
		t.Fatal(err)
	}
	recv := func() core.DoneMsg {
		select {
		case m := <-got:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("frame never delivered")
			return core.DoneMsg{}
		}
	}
	took := make([]time.Duration, 11)
	for i := range took {
		if err := trs[0].Send(0, 1, core.DoneMsg{Job: "late"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // the clock waits for "late" now
		start := time.Now()
		trs[0].clock.PostTo(trs[0].peers[edge{0, 1}], 200*time.Microsecond, early)
		if m := recv(); m.Job != "early" {
			t.Fatalf("round %d: %q arrived first, want early", i, m.Job)
		}
		took[i] = time.Since(start)
		recv()
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med >= time.Millisecond {
		t.Errorf("frame due in 200µs queued during a 20ms wait: median delivery %v, want < 1ms", med)
	}
}
