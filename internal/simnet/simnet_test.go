package simnet

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/sim/par"
)

type testMsg struct {
	kind string
	size int
	n    int
}

func (m testMsg) Kind() string   { return m.kind }
func (m testMsg) SizeBytes() int { return m.size }

func lineTopo() *graph.Graph {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 1.5)
	return g
}

// onEveryKernel runs one DES transport case over each kernel shape the
// transport supports: the serial engine, and the parallel kernel at every
// partition count in parts (1 is the in-line shape lossy fault plans
// collapse to, 2 puts a window barrier and an outbox under the same case).
func onEveryKernel(t *testing.T, topo *graph.Graph, parts []int, run func(t *testing.T, k Kernel)) {
	t.Run("serial", func(t *testing.T) { run(t, sim.New()) })
	for _, p := range parts {
		t.Run(fmt.Sprintf("par%d", p), func(t *testing.T) {
			part := topo.Partition(p)
			k, err := par.New(part, topo.MinCrossDelay(part))
			if err != nil {
				t.Fatal(err)
			}
			if k.Parts() != p {
				t.Fatalf("kernel has %d partitions, want %d", k.Parts(), p)
			}
			run(t, k)
		})
	}
}

var oneAndTwo = []int{1, 2}

func TestDESDeliveryDelay(t *testing.T) {
	onEveryKernel(t, lineTopo(), oneAndTwo, func(t *testing.T, k Kernel) {
		tr := NewDES(k, lineTopo())
		var gotAt float64
		var gotFrom graph.NodeID
		tr.Attach(0, func(from graph.NodeID, p Payload) {})
		tr.Attach(1, func(from graph.NodeID, p Payload) {
			gotAt = tr.NowOf(1)
			gotFrom = from
		})
		tr.Attach(2, func(from graph.NodeID, p Payload) {})
		if err := tr.Send(0, 1, testMsg{kind: "x", size: 10}); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if gotAt != 2.5 {
			t.Fatalf("delivered at %v, want 2.5", gotAt)
		}
		if gotFrom != 0 {
			t.Fatalf("from = %d, want 0", gotFrom)
		}
		if now := tr.Now(); now != 2.5 {
			t.Fatalf("transport clock %v after the run, want 2.5", now)
		}
	})
}

func TestDESNonNeighborRejected(t *testing.T) {
	onEveryKernel(t, lineTopo(), oneAndTwo, func(t *testing.T, k Kernel) {
		tr := NewDES(k, lineTopo())
		tr.Attach(0, func(graph.NodeID, Payload) {})
		if err := tr.Send(0, 2, testMsg{kind: "x"}); err == nil {
			t.Fatal("send to non-neighbor accepted")
		}
	})
}

func TestDESFIFOPerLink(t *testing.T) {
	onEveryKernel(t, lineTopo(), oneAndTwo, func(t *testing.T, k Kernel) {
		tr := NewDES(k, lineTopo())
		var got []int
		tr.Attach(0, func(graph.NodeID, Payload) {})
		tr.Attach(1, func(_ graph.NodeID, p Payload) { got = append(got, p.(testMsg).n) })
		tr.Attach(2, func(graph.NodeID, Payload) {})
		for i := 0; i < 50; i++ {
			if err := tr.Send(0, 1, testMsg{kind: "x", n: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("delivered %d messages, want 50", len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("link not FIFO at %d: %v", i, got[:i+1])
			}
		}
	})
}

func TestDESStats(t *testing.T) {
	onEveryKernel(t, lineTopo(), oneAndTwo, func(t *testing.T, k Kernel) {
		tr := NewDES(k, lineTopo())
		for i := graph.NodeID(0); i < 3; i++ {
			tr.Attach(i, func(graph.NodeID, Payload) {})
		}
		tr.Send(0, 1, testMsg{kind: "a", size: 100})
		tr.Send(1, 2, testMsg{kind: "a", size: 50})
		tr.Send(1, 0, testMsg{kind: "b", size: 7})
		k.Run()
		// The counters live on per-partition shards; every read must see
		// the aggregate whatever the partition count.
		st := tr.Stats()
		if st.Messages() != 3 || st.Bytes() != 157 {
			t.Fatalf("stats %v", st)
		}
		byKind := st.ByKind()
		if byKind["a"] != 2 || byKind["b"] != 1 {
			t.Fatalf("by kind %v", byKind)
		}
		if got := k.Processed(); got != 3 {
			t.Fatalf("kernel processed %d events, want the 3 deliveries", got)
		}
		st.Reset()
		if st.Messages() != 0 || st.Bytes() != 0 || len(st.ByKind()) != 0 {
			t.Fatal("Reset did not clear stats")
		}
	})
}

func TestDESTimerCancel(t *testing.T) {
	onEveryKernel(t, lineTopo(), oneAndTwo, func(t *testing.T, k Kernel) {
		tr := NewDES(k, lineTopo())
		tr.Attach(0, func(graph.NodeID, Payload) {})
		fired, firedAt := false, 0.0
		cancel := tr.After(0, 5, func() { fired = true })
		tr.After(2, 3, func() { firedAt = tr.NowOf(2) })
		if !cancel() {
			t.Fatal("cancel of pending timer returned false")
		}
		if cancel() {
			t.Fatal("double cancel returned true")
		}
		k.Run()
		if fired {
			t.Fatal("cancelled timer fired")
		}
		if firedAt != 3 {
			t.Fatalf("surviving timer fired at %v, want 3", firedAt)
		}
	})
}

func TestDESAttachTwicePanics(t *testing.T) {
	onEveryKernel(t, lineTopo(), oneAndTwo, func(t *testing.T, k Kernel) {
		tr := NewDES(k, lineTopo())
		tr.Attach(0, func(graph.NodeID, Payload) {})
		defer func() {
			if recover() == nil {
				t.Fatal("double Attach did not panic")
			}
		}()
		tr.Attach(0, func(graph.NodeID, Payload) {})
	})
}

func BenchmarkDESSend(b *testing.B) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	for i := graph.NodeID(0); i < 3; i++ {
		tr.Attach(i, func(graph.NodeID, Payload) {})
	}
	msg := testMsg{kind: "x", size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, msg)
		if i%1000 == 999 {
			eng.Run()
		}
	}
	eng.Run()
}
