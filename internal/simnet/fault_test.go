package simnet

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// pairTopo is a single link with delay 1.
func pairTopo() *graph.Graph {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	return g
}

// runLossTrial sends n messages over a lossy link and returns which message
// indices were delivered plus the final dropped count.
func runLossTrial(t *testing.T, k Kernel, seed int64, loss float64, n int) ([]int, int64) {
	t.Helper()
	tr := NewDES(k, pairTopo())
	var got []int
	tr.Attach(0, func(graph.NodeID, Payload) {})
	tr.Attach(1, func(_ graph.NodeID, p Payload) { got = append(got, p.(testMsg).n) })
	tr.SetFaults(FaultPlan{Seed: seed, Loss: loss}, 0)
	for i := 0; i < n; i++ {
		if err := tr.Send(0, 1, testMsg{kind: "x", size: 1, n: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return got, tr.Stats().Dropped()
}

// lossyParts: loss and jitter draw from one sequential source, so the
// transport admits them on a single partition only (see
// TestDESLossyPlanNeedsOnePartition).
var lossyParts = []int{1}

func TestDESFaultLossDeterministicAndCounted(t *testing.T) {
	const n = 200
	// The serial engine's pattern is the reference: the parallel kernel at
	// one partition must drop exactly the same traversals.
	var reference []int
	onEveryKernel(t, pairTopo(), lossyParts, func(t *testing.T, k Kernel) {
		got, _ := runLossTrial(t, k, 42, 0.3, n)
		if reference == nil {
			reference = got
			return
		}
		if len(got) != len(reference) {
			t.Fatalf("delivered %d messages, the serial engine %d", len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("diverged from the serial engine at delivery %d: %d vs %d", i, got[i], reference[i])
			}
		}
	})
	fresh := func() Kernel { k, _ := NewKernel(pairTopo(), 0); return k }
	gotA, droppedA := runLossTrial(t, fresh(), 42, 0.3, n)
	gotB, droppedB := runLossTrial(t, fresh(), 42, 0.3, n)
	if len(gotA) != len(gotB) {
		t.Fatalf("same seed delivered %d vs %d messages", len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, gotA[i], gotB[i])
		}
	}
	if len(gotA) == 0 || len(gotA) == n {
		t.Fatalf("loss 0.3 delivered %d/%d — injector inert or total", len(gotA), n)
	}
	if droppedA != int64(n-len(gotA)) {
		t.Fatalf("dropped counter %d, want %d", droppedA, n-len(gotA))
	}
	if droppedA != droppedB {
		t.Fatalf("same seed dropped %d vs %d", droppedA, droppedB)
	}
	gotC, _ := runLossTrial(t, fresh(), 43, 0.3, n)
	same := len(gotC) == len(gotA)
	if same {
		for i := range gotA {
			if gotA[i] != gotC[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss patterns")
	}
}

// TestDESLossyPlanNeedsOnePartition: SetFaults enforces what the callers
// are told to arrange.
func TestDESLossyPlanNeedsOnePartition(t *testing.T) {
	k, err := NewKernel(pairTopo(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewDES(k, pairTopo())
	tr.SetFaults(FaultPlan{Crashes: []Crash{{Site: 1, At: 1}}}, 0) // crash-only: fine
	defer func() {
		if recover() == nil {
			t.Fatal("a lossy plan was armed on two partitions")
		}
	}()
	tr.SetFaults(FaultPlan{Seed: 1, Loss: 0.1}, 0)
}

func TestDESFaultCrashWindowDropsBothDirections(t *testing.T) {
	onEveryKernel(t, pairTopo(), oneAndTwo, testCrashWindowDropsBothDirections)
}

func testCrashWindowDropsBothDirections(t *testing.T, k Kernel) {
	tr := NewDES(k, pairTopo())
	var delivered []int
	tr.Attach(0, func(_ graph.NodeID, p Payload) { delivered = append(delivered, p.(testMsg).n) })
	tr.Attach(1, func(_ graph.NodeID, p Payload) { delivered = append(delivered, p.(testMsg).n) })
	// Site 1 is down during [10, 20).
	tr.SetFaults(FaultPlan{Crashes: []Crash{{Site: 1, At: 10, For: 10}}}, 0)

	send := func(at float64, from, to graph.NodeID, n int) {
		k.Schedule(int(from), int(from), at, func() {
			if err := tr.Send(from, to, testMsg{kind: "x", size: 1, n: n}); err != nil {
				t.Error(err)
			}
		})
	}
	send(5, 0, 1, 1)   // delivered at 6, before the window
	send(9.5, 0, 1, 2) // delivery time 10.5 falls inside the window: dropped
	send(12, 0, 1, 3)  // sent into the window: dropped
	send(15, 1, 0, 4)  // sent BY the crashed site: dropped
	send(21, 0, 1, 5)  // after recovery: delivered
	send(25, 1, 0, 6)  // recovered site sends again: delivered
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 5, 6}
	if len(delivered) != len(want) {
		t.Fatalf("delivered %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivered %v, want %v", delivered, want)
		}
	}
	if got := tr.Stats().Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
}

func TestDESFaultPermanentCrashNeverRecovers(t *testing.T) {
	onEveryKernel(t, pairTopo(), oneAndTwo, testPermanentCrashNeverRecovers)
}

func testPermanentCrashNeverRecovers(t *testing.T, k Kernel) {
	tr := NewDES(k, pairTopo())
	got := 0
	tr.Attach(0, func(graph.NodeID, Payload) {})
	tr.Attach(1, func(graph.NodeID, Payload) { got++ })
	tr.SetFaults(FaultPlan{Crashes: []Crash{{Site: 1, At: 1}}}, 0)
	for _, at := range []float64{5, 50, 500} {
		k.Schedule(0, 0, at, func() {
			if err := tr.Send(0, 1, testMsg{kind: "x", size: 1}); err != nil {
				t.Error(err)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("permanently crashed site received %d messages", got)
	}
}

func TestDESFaultJitterBounds(t *testing.T) {
	onEveryKernel(t, pairTopo(), lossyParts, testJitterBounds)
}

func testJitterBounds(t *testing.T, k Kernel) {
	tr := NewDES(k, pairTopo())
	var arrivals []float64
	tr.Attach(0, func(graph.NodeID, Payload) {})
	tr.Attach(1, func(graph.NodeID, Payload) { arrivals = append(arrivals, tr.NowOf(1)) })
	tr.SetFaults(FaultPlan{Seed: 9, MaxJitter: 0.5}, 0)
	const n = 100
	for i := 0; i < n; i++ {
		if err := tr.Send(0, 1, testMsg{kind: "x", size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != n {
		t.Fatalf("jitter alone dropped messages: %d/%d", len(arrivals), n)
	}
	jittered := false
	for _, at := range arrivals {
		if at < 1 || at >= 1.5 {
			t.Fatalf("arrival at %v outside [1, 1.5)", at)
		}
		if at != 1 {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("no arrival was jittered")
	}
}

func TestFaultEpochShiftsCrashWindows(t *testing.T) {
	onEveryKernel(t, pairTopo(), oneAndTwo, testEpochShiftsCrashWindows)
}

func testEpochShiftsCrashWindows(t *testing.T, k Kernel) {
	tr := NewDES(k, pairTopo())
	got := 0
	tr.Attach(0, func(graph.NodeID, Payload) {})
	tr.Attach(1, func(graph.NodeID, Payload) { got++ })
	// Crash at plan time 10 with epoch 100: absolute window starts at 110.
	tr.SetFaults(FaultPlan{Crashes: []Crash{{Site: 1, At: 10, For: 5}}}, 100)
	k.Schedule(0, 0, 105, func() { tr.Send(0, 1, testMsg{kind: "x", size: 1}) }) // before 110: ok
	k.Schedule(0, 0, 111, func() { tr.Send(0, 1, testMsg{kind: "x", size: 1}) }) // inside: dropped
	k.Schedule(0, 0, 116, func() { tr.Send(0, 1, testMsg{kind: "x", size: 1}) }) // after 115: ok
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestLiveFaultFullLossDropsEverything(t *testing.T) {
	l := NewLive(pairTopo(), 100*time.Microsecond)
	var got atomic.Int64
	l.Attach(0, func(graph.NodeID, Payload) {})
	l.Attach(1, func(graph.NodeID, Payload) { got.Add(1) })
	l.Start()
	defer l.Close()
	l.SetFaults(FaultPlan{Seed: 1, Loss: 1}, 0)
	for i := 0; i < 50; i++ {
		if err := l.Send(0, 1, testMsg{kind: "x", size: 1, n: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !l.WaitIdle(5 * time.Second) {
		t.Fatal("transport did not quiesce")
	}
	if n := got.Load(); n != 0 {
		t.Fatalf("full loss delivered %d messages", n)
	}
	if d := l.Stats().Dropped(); d != 50 {
		t.Fatalf("dropped %d, want 50", d)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		plan FaultPlan
		ok   bool
	}{
		{FaultPlan{}, true},
		{FaultPlan{Loss: 0.5, MaxJitter: 1}, true},
		{FaultPlan{Loss: -0.1}, false},
		{FaultPlan{Loss: 1.1}, false},
		{FaultPlan{MaxJitter: -1}, false},
		{FaultPlan{Crashes: []Crash{{Site: 5, At: 1}}}, false},
		{FaultPlan{Crashes: []Crash{{Site: 1, At: -1}}}, false},
		{FaultPlan{Crashes: []Crash{{Site: 1, At: 1, For: 2}}}, true},
	}
	for i, c := range cases {
		err := c.plan.Validate(2)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
	if (FaultPlan{}).Enabled() {
		t.Error("empty plan reports enabled")
	}
	if !(FaultPlan{Loss: 0.1}).Enabled() || !(FaultPlan{Crashes: []Crash{{Site: 0}}}).Enabled() {
		t.Error("non-empty plan reports disabled")
	}
}
