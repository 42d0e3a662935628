package simnet_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// The wall-clock Transport is wire.NetTransport; these tests pin the
// Transport contract on it the way simnet_test.go pins it on the DES. The
// transport is built by wire.ListenLocal, which hosts every site of the
// topology in this process over loopback TCP. Payloads are protocol
// messages because frames go through the codec.

// lineTopo is the path 0 — 1 — 2: sites 0 and 2 are not neighbours.
func lineTopo() *graph.Graph {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 0.1)
	g.MustAddEdge(1, 2, 0.1)
	return g
}

// listenLine hosts every site of lineTopo on one transport, each with a
// handler that ignores its frames unless handlers names one.
func listenLine(t *testing.T, scale time.Duration, handlers map[graph.NodeID]simnet.Handler) *wire.NetTransport {
	t.Helper()
	tr, err := wire.ListenLocal(lineTopo(), scale)
	if err != nil {
		t.Fatal(err)
	}
	for id := graph.NodeID(0); id < 3; id++ {
		h := handlers[id]
		if h == nil {
			h = func(graph.NodeID, simnet.Payload) {}
		}
		tr.Attach(id, h)
	}
	return tr
}

// Frames over one link arrive in send order, a send to a non-neighbour is
// refused, and WaitIdle sees every frame handled.
func TestLiveDeliveryAndFIFO(t *testing.T) {
	var mu sync.Mutex
	var got []dag.TaskID
	tr := listenLine(t, 100*time.Microsecond, map[graph.NodeID]simnet.Handler{
		1: func(from graph.NodeID, p simnet.Payload) {
			if from != 0 {
				t.Errorf("frame from %d, want 0", from)
			}
			mu.Lock()
			got = append(got, p.(core.DoneMsg).Task)
			mu.Unlock()
		},
	})
	defer tr.Close()
	tr.Start()
	for i := 0; i < 30; i++ {
		if err := tr.Send(0, 1, core.DoneMsg{Job: "fifo", Task: dag.TaskID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Send(0, 2, core.DoneMsg{}); err == nil {
		t.Fatal("send to a non-neighbour accepted")
	}
	if !tr.WaitIdle(5 * time.Second) {
		t.Fatal("transport did not quiesce")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 30 {
		t.Fatalf("delivered %d frames, want 30", len(got))
	}
	for i, task := range got {
		if task != dag.TaskID(i) {
			t.Fatalf("link not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

// A timer runs, a cancelled one does not, and WaitIdle waits for the first.
func TestLiveTimer(t *testing.T) {
	tr := listenLine(t, 50*time.Microsecond, nil)
	defer tr.Close()
	tr.Start()
	var fired, cancelledFired atomic.Bool
	tr.After(2, 1, func() { fired.Store(true) })
	cancel := tr.After(2, 2, func() { cancelledFired.Store(true) })
	if !cancel() {
		t.Fatal("cancel of a pending timer reported it gone")
	}
	if !tr.WaitIdle(5 * time.Second) {
		t.Fatal("transport did not quiesce")
	}
	if !fired.Load() {
		t.Fatal("timer did not fire")
	}
	if cancelledFired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

func TestLiveSendBeforeStart(t *testing.T) {
	tr := listenLine(t, time.Millisecond, nil)
	defer tr.Close()
	if err := tr.Send(0, 1, core.DoneMsg{}); err == nil {
		t.Fatal("send before Start accepted")
	}
}

// Close may be called twice, and a send after it is dropped silently.
func TestLiveCloseIdempotent(t *testing.T) {
	tr := listenLine(t, time.Millisecond, nil)
	tr.Start()
	tr.Close()
	tr.Close() // must not panic or hang
	if err := tr.Send(0, 1, core.DoneMsg{}); err != nil {
		t.Fatalf("send on a closed transport: %v, want a silent drop", err)
	}
}
