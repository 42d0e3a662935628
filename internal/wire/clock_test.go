package wire

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// onWallClock runs a case on each shape of the wall-clock transport, over
// two sites joined by one 0.2-unit link at a millisecond per unit, both
// started. The case gets the transport of each site: the one transport of
// an in-process live cluster for both ("live", ListenLocal), or each site's
// own, as in deployment ("tcp").
func onWallClock(t *testing.T, run func(t *testing.T, trs []simnet.Transport)) {
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.2)
	t.Run("live", func(t *testing.T) {
		live, err := ListenLocal(topo, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		live.Attach(0, func(graph.NodeID, simnet.Payload) {})
		live.Attach(1, func(graph.NodeID, simnet.Payload) {})
		live.Start()
		defer live.Close()
		run(t, []simnet.Transport{live, live})
	})
	t.Run("tcp", func(t *testing.T) {
		nets := startTransports(t, topo, time.Millisecond)
		trs := make([]simnet.Transport, len(nets))
		for id, tr := range nets {
			tr.Attach(graph.NodeID(id), func(graph.NodeID, simnet.Payload) {})
			tr.Start()
			defer tr.Close()
			trs[id] = tr
		}
		run(t, trs)
	})
}

// medianTimerLate sets n timers of delay units on site, one at a time, and
// reports how late the median one ran after its due time. A timer that runs
// early fails the test.
func medianTimerLate(t *testing.T, tr simnet.Transport, site graph.NodeID, delay float64, n int) time.Duration {
	t.Helper()
	due := time.Duration(delay * float64(time.Millisecond))
	ran := make(chan time.Duration, 1)
	late := make([]time.Duration, n)
	for i := range late {
		start := time.Now()
		tr.After(site, delay, func() { ran <- time.Since(start) })
		select {
		case took := <-ran:
			if took < due {
				t.Fatalf("a %v timer ran after %v", due, took)
			}
			late[i] = took - due
		case <-time.After(5 * time.Second):
			t.Fatal("timer never ran")
		}
	}
	slices.Sort(late)
	return late[n/2]
}

// A 200 µs timer runs within 100 µs of its due time (median of 201), not
// the millisecond late a Go timer in an idle process would make it.
func TestWallClockAfterPrecision(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the precise alarm is a timerfd; elsewhere timers are Go-timer paced")
	}
	onWallClock(t, func(t *testing.T, trs []simnet.Transport) {
		late := medianTimerLate(t, trs[0], 0, 0.2, 201)
		t.Logf("200µs timer: median %v late", late)
		if late >= 100*time.Microsecond {
			t.Errorf("200µs timer: median %v late, want < 100µs", late)
		}
	})
}

// Timers set for the same virtual instant run in the order they were set,
// in every one of 1,000 rounds.
func TestWallClockSameDeadlineInCreationOrder(t *testing.T) {
	onWallClock(t, func(t *testing.T, trs []simnet.Transport) {
		const timers = 3
		var mu sync.Mutex
		var got []int
		ran := make(chan struct{}, timers)
		for round := 0; round < 1000; round++ {
			mu.Lock()
			got = got[:0]
			mu.Unlock()
			for i := 0; i < timers; i++ {
				i := i
				trs[0].After(0, 0.05, func() {
					mu.Lock()
					got = append(got, i)
					mu.Unlock()
					ran <- struct{}{}
				})
			}
			for i := 0; i < timers; i++ {
				select {
				case <-ran:
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: timer never ran", round)
				}
			}
			mu.Lock()
			order := slices.Clone(got)
			mu.Unlock()
			if !slices.Equal(order, []int{0, 1, 2}) {
				t.Fatalf("round %d: timers ran in order %v", round, order)
			}
		}
	})
}

// The cancel handle of a fired timer pins nothing but the timer's id: ten
// thousand of them, kept, grow the live heap by at most 64 bytes each. (A
// handle that kept a runtime timer and its closures pinned 170–190.)
func TestWallClockHandlesPinNothing(t *testing.T) {
	onWallClock(t, func(t *testing.T, trs []simnet.Transport) {
		const n = 10000
		handles := make([]simnet.CancelFunc, 0, n)
		done := make(chan struct{})
		// Each timer sets the next from the site's own context, as the
		// protocol does, so one is pending at a time and the queue's own
		// storage does not grow with n.
		var next func()
		next = func() {
			if len(handles) == n {
				close(done)
				return
			}
			handles = append(handles, trs[0].After(0, 0, next))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		trs[0].After(0, 0, next)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("timer chain stalled")
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
		t.Logf("%d B per kept handle", per)
		if per > 64 {
			t.Errorf("%d kept handles of fired timers grew the heap %d B each, want <= 64", n, per)
		}
		runtime.KeepAlive(handles)
	})
}

// A neighbour that is down — listener closed, every dial refused, the
// reconnect backoff running — delays no one: while frames to it keep
// queueing, site 0's timers still run within 100 µs of due and its frames
// to a live neighbour still cost their link delay plus under 400 µs.
func TestNetTransportDeadNeighbourDelaysNoOne(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the precise alarm is a timerfd; elsewhere timers are Go-timer paced")
	}
	topo := graph.New(3)
	topo.MustAddEdge(0, 1, 0.2)
	topo.MustAddEdge(0, 2, 0.2)
	down, err := Listen(NetConfig{Self: 2, Topo: topo, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	downAddr := down.Addr()
	down.Close()
	var trs [2]*NetTransport
	for id := range trs {
		tr, err := Listen(NetConfig{Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", MaxBackoff: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		trs[id] = tr
	}
	trs[0].SetPeers(map[graph.NodeID]string{1: trs[1].Addr(), 2: downAddr})
	trs[1].SetPeers(map[graph.NodeID]string{0: trs[0].Addr()})
	got := make(chan core.DoneMsg, 1024)
	trs[0].Attach(0, func(graph.NodeID, simnet.Payload) {})
	trs[1].Attach(1, func(_ graph.NodeID, p simnet.Payload) { got <- p.(core.DoneMsg) })
	for _, tr := range trs {
		tr.Start()
		defer tr.Close()
	}
	// Keep frames to the dead neighbour queueing throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				trs[0].Send(0, 2, core.DoneMsg{Job: "lost"})
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	time.Sleep(50 * time.Millisecond) // several refused dials in
	if late := medianTimerLate(t, trs[0], 0, 0.2, 201); late >= 100*time.Microsecond {
		t.Errorf("200µs timer beside a dead neighbour: median %v late, want < 100µs", late)
	}
	if med := medianHop(t, trs[:], got, 121); med >= 600*time.Microsecond {
		t.Errorf("one-way delivery over a 200µs link beside a dead neighbour: median %v, want < 600µs", med)
	}
}
