package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// The two protocol-layer hot paths whose allocation counts the tests below
// pin. Each constructor builds a small DES cluster and returns the closure
// that performs one operation in steady state.

// newRelayHop returns a step that relays one routed message across the
// middle site of a 3-site line: Site.handle → forward → DES.Send →
// Queue.Step, the delivery at the destination (an acknowledgement nobody
// waits for) included. kernelWorkers is Config.KernelWorkers.
func newRelayHop(kernelWorkers int) (step func(), err error) {
	cfg := DefaultConfig()
	cfg.KernelWorkers = kernelWorkers
	c, err := NewCluster(graph.Line(3, graph.UnitDelay, 1), cfg)
	if err != nil {
		return nil, err
	}
	relay := c.sites[1]
	m := NewRouted(0, 2, 0, UnlockAck{Job: "nobody", Member: 0})
	var p simnet.Payload = m
	return func() {
		m.TTL = 2 // spent by the hop; the message itself is reused
		relay.handle(0, p)
		if err := c.Run(); err != nil {
			panic(err)
		}
	}, nil
}

// newUnlockReplay returns a step that unlocks a site holding n deferred
// enrollments: the first re-locks the site (and acknowledges, which is the
// step's only allocation: the boxed EnrollAck and its routed header), the
// other n-1 find it locked again and requeue. The step then requeues the
// enrollment it consumed, so every call sees the same queue.
func newUnlockReplay(n int) (step func(), err error) {
	c, err := soloHost(DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	s := c.sites[0]
	enroll := func(job string) deferredWork {
		return deferredWork{src: 1, req: EnrollReq{Job: job, Initiator: 1, Window: 1}}
	}
	s.lock(1, "held")
	for i := 0; i < n; i++ {
		s.deferWork(enroll(fmt.Sprintf("j%d", i)))
	}
	return func() {
		s.unlock()
		if len(s.deferred) != n-1 || !s.locked() {
			panic(fmt.Sprintf("core: unlock replay left %d deferred, locked=%v", len(s.deferred), s.locked()))
		}
		s.deferWork(enroll(s.lockJob))
		if err := c.Run(); err != nil { // the sink swallows the ack
			panic(err)
		}
	}, nil
}

// TestRelayHopAllocatesNothing pins the cost of one relayed hop on a 3-site
// line — Site.handle → forward → DES.Send → Queue.Step, the delivery at the
// destination included — at zero allocations, on the serial kernel and on
// the parallel kernel's in-line partition: the message rides the event
// node, and the routed handle is re-sent as it is.
func TestRelayHopAllocatesNothing(t *testing.T) {
	for _, workers := range []int{0, 1} {
		step, err := newRelayHop(workers)
		if err != nil {
			t.Fatal(err)
		}
		step() // first use grows the heap and the stats shard's kind table
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("kernel workers %d: a relayed hop allocates %v, want 0", workers, allocs)
		}
	}
}

// TestUnlockReplayAllocatesNothingPerItem pins the deferred queue's replay:
// an unlock over n deferred enrollments, the first of which re-locks the
// site, allocates exactly what that one enrollment's acknowledgement costs
// (the boxed EnrollAck and its routed header) — nothing per requeued item,
// at any n — and replays each item once.
func TestUnlockReplayAllocatesNothingPerItem(t *testing.T) {
	const ackCost = 2
	for _, n := range []int{1, 2, 64, 1024} {
		step, err := newUnlockReplay(n)
		if err != nil {
			t.Fatal(err)
		}
		step() // both backing arrays exist after two passes
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != ackCost {
			t.Errorf("unlock over %d deferred enrollments allocates %v, want %d (the one acknowledgement)",
				n, allocs, ackCost)
		}
	}
}

// TestUnlockReplayIsLinear: one unlock replays every queued item exactly
// once. The enrollment at the head re-locks the site; each of the n arrivals
// behind it is looked at once (one traced deferral each) and requeued.
func TestUnlockReplayIsLinear(t *testing.T) {
	h := newSoloSite(t)
	h.s.lock(1, "held")
	h.enroll("a", 1)
	const n = 500
	for i := 0; i < n; i++ {
		h.arrive()
	}
	h.flushEvents()
	h.log = nil
	h.release()
	h.flushEvents()
	deferred := 0
	for _, l := range h.log {
		if strings.HasPrefix(l, "deferred ") {
			deferred++
		}
	}
	if deferred != n || len(h.log) != n+1 || h.s.lockJob != "a" || len(h.s.deferred) != n {
		t.Fatalf("one pass over an enrollment and %d arrivals: %d log lines, %d deferrals, %d requeued, locked for %q",
			n, len(h.log), deferred, len(h.s.deferred), h.s.lockJob)
	}
}

// TestRoutedPayloadContract pins what observers outside the protocol (the
// benchmark's trace decorator) rely on: a sent Routed is a value assertable
// from simnet.Payload, its Inner selector returns the inner message as the
// value type it was sent as — and both still hold after the message has
// been relayed, delivered and its handler has returned, because a header is
// never recycled or cleared.
func TestRoutedPayloadContract(t *testing.T) {
	c := mustCluster(t, fastLine(3), DefaultConfig())
	var seen []simnet.Payload
	tr := c.tr
	c.tr = &hookedTransport{Transport: tr, onSend: func(p simnet.Payload) { seen = append(seen, p) }}
	c.sites[0].sendTo(2, UnlockAck{Job: "j7@0", Member: 0})
	runAll(t, c)
	if len(seen) != 2 {
		t.Fatalf("a 2-hop message crossed %d links", len(seen))
	}
	for hop, p := range seen {
		r, ok := p.(Routed)
		if !ok {
			t.Fatalf("hop %d: payload is %T, not core.Routed", hop, p)
		}
		inner, ok := r.Inner.(UnlockAck)
		if !ok || inner.Job != "j7@0" {
			t.Fatalf("hop %d: Inner after delivery is %#v", hop, r.Inner)
		}
		if r.Src != 0 || r.Dest != 2 {
			t.Fatalf("hop %d: header reads %d -> %d after delivery", hop, r.Src, r.Dest)
		}
		if p.Kind() != "rtds.unlock-ack" || p.SizeBytes() != 8+inner.SizeBytes() {
			t.Fatalf("hop %d: Kind %q SizeBytes %d after delivery", hop, p.Kind(), p.SizeBytes())
		}
	}
	// One header per end-to-end message: both hops carried the same one,
	// and the relay spent its TTL in place.
	if seen[0].(Routed).RoutedHeader != seen[1].(Routed).RoutedHeader {
		t.Fatal("the relay re-wrapped the message instead of forwarding its header")
	}
	if got, want := seen[0].(Routed).TTL, c.routedTTL()-2; got != want {
		t.Fatalf("TTL after two hops is %d, want %d", got, want)
	}
	var zero Routed
	if zero.RoutedHeader != nil {
		t.Fatal("the zero Routed has a header")
	}
	if NewRouted(1, 2, 3, UnlockAck{}).RoutedHeader == nil {
		t.Fatal("NewRouted returned a handle without a header")
	}
}

// tracedGolden is Events() of the scenario below at the commit before the
// detail strings became conditional on tracing.
const tracedGolden = `     0.250 site=0   arrival      j1@0
     0.250 site=0   enroll       j1@0 (pcs=2)
     0.260 site=0   deferred     j2@0 (locked by 0)
     0.270 site=2   arrival      j3@2
     0.270 site=2   enroll       j3@2 (pcs=2)
     0.280 site=1   arrival      j4@1
     0.280 site=1   local-accept j4@1
     0.280 site=1   decided      j4@1 (accepted-local)
     0.451 site=0   acs-fixed    j1@0 (acs=2)
     0.451 site=0   mapped       j1@0 (procs=2 case=scale M=10.1 M*=10)
     0.471 site=2   acs-fixed    j3@2 (acs=1 (nobody enrolled))
     0.471 site=2   decided      j3@2 (rejected/empty-acs)
     0.551 site=0   validated    j1@0 (coupling=2/2)
     0.551 site=0   commit       j1@0 (executing=2)
     0.651 site=0   decided      j1@0 (accepted-distributed)
     0.651 site=0   arrival      j2@0
     0.651 site=0   local-accept j2@0
     0.651 site=0   decided      j2@0 (accepted-local)
     1.280 site=1   task-done    j4@1 (t1 at 1.280)
     2.280 site=1   task-done    j4@1 (t2 at 2.280)
     2.280 site=1   job-done     j4@1 (completed 2.280)
    10.601 site=0   task-done    j1@0 (t1 at 10.601)
    12.330 site=0   task-done    j1@0 (t2 at 12.280)
    12.330 site=0   job-done     j1@0 (completed 12.280)
    20.601 site=0   task-done    j2@0 (t1 at 20.601)
    30.601 site=0   task-done    j2@0 (t2 at 30.601)
    30.601 site=0   job-done     j2@0 (completed 30.601)
`

// TestTracedTimelineGolden: with tracing on, the timeline is byte-identical
// to what it was when every detail string was formatted unconditionally.
func TestTracedTimelineGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceEvents = true
	c := mustCluster(t, fastLine(3), cfg)
	for _, sub := range []struct {
		at       float64
		origin   graph.NodeID
		chain    bool
		n        int
		dur, rel float64
	}{
		{0, 0, false, 2, 10, 16},
		{0.01, 0, false, 2, 10, 40},
		{0.02, 2, true, 3, 30, 20},
		{0.03, 1, true, 2, 1, 50},
	} {
		g := parJob(t, sub.n, sub.dur)
		if sub.chain {
			g = chainJob(t, sub.n, sub.dur)
		}
		if _, err := c.Submit(sub.at, sub.origin, g, sub.rel); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, c)
	var b strings.Builder
	for _, e := range c.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if b.String() != tracedGolden {
		t.Fatalf("traced timeline changed:\n%s", b.String())
	}
}
