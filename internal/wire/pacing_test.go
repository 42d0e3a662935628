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

// A hop costs its emulated delay, not the millisecond an idle process's
// timer rounds a sub-millisecond wait up to: frames sent one at a time
// over a 200 µs link arrive a median of well under 600 µs after Send.
func TestNetTransportHopLatency(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the precise pause is nanosleep(2); elsewhere a hop is timer-paced")
	}
	trs, got := pair(t, 0.2)
	defer trs[0].Close()
	defer trs[1].Close()
	// The first frame dials the connection; it is not a hop to time.
	if err := trs[0].Send(0, 1, core.DoneMsg{Job: "warm"}); err != nil {
		t.Fatal(err)
	}
	<-got

	took := make([]time.Duration, 121)
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
		time.Sleep(time.Millisecond) // spaced: each frame finds an idle writer
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med < 200*time.Microsecond || med >= 600*time.Microsecond {
		t.Errorf("one-way delivery over a 200µs link: median %v, want in [200µs, 600µs)", med)
	}
}

// Frames sent back to back on one link, each waited out in a short pause,
// arrive in send order and all of them arrive.
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

// Close while a writer waits out a short pause returns within about that
// pause, and leaves no goroutine behind.
func TestNetTransportCloseDuringShortWait(t *testing.T) {
	before := runtime.NumGoroutine()
	trs, got := pair(t, 1.9) // just under the 2 ms cut-over to a timer
	if err := trs[0].Send(0, 1, core.DoneMsg{Job: "warm"}); err != nil {
		t.Fatal(err)
	}
	<-got
	if err := trs[0].Send(0, 1, core.DoneMsg{Job: "pending"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Microsecond) // the writer is inside its pause now
	start := time.Now()
	trs[0].Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Close during a short wait took %v", took)
	}
	trs[1].Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before", n, before)
	}
}
