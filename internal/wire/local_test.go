package wire

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// line3 is the path 0 — 1 — 2: sites 0 and 2 are not neighbours.
func line3() *graph.Graph {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 0.1)
	g.MustAddEdge(1, 2, 0.1)
	return g
}

// A plan that loses every traversal delivers nothing, counts every send as
// dropped, and leaves nothing in flight.
func TestListenLocalFullLossDropsEverything(t *testing.T) {
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.1)
	tr, err := ListenLocal(topo, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got atomic.Int64
	tr.Attach(0, func(graph.NodeID, simnet.Payload) {})
	tr.Attach(1, func(graph.NodeID, simnet.Payload) { got.Add(1) })
	tr.Start()
	tr.SetFaults(simnet.FaultPlan{Seed: 1, Loss: 1}, 0)
	for i := 0; i < 50; i++ {
		if err := tr.Send(0, 1, core.DoneMsg{Task: dag.TaskID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.WaitIdle(5 * time.Second) {
		t.Fatal("transport did not quiesce")
	}
	if n := got.Load(); n != 0 {
		t.Fatalf("full loss delivered %d frames", n)
	}
	if d := tr.Stats().Dropped(); d != 50 {
		t.Fatalf("dropped %d, want 50", d)
	}
}

// A send across the installed boundary counts as a crossing, so a
// hierarchical cluster's "no cross-region traffic" check means something on
// the wall-clock transport too.
func TestNetTransportCountsBoundaryCrossings(t *testing.T) {
	trs, got := pair(t, 0.1)
	defer trs[0].Close()
	defer trs[1].Close()
	trs[0].Stats().SetBoundary(func(from, to graph.NodeID) bool { return from != to })
	if err := trs[0].Send(0, 1, core.DoneMsg{}); err != nil {
		t.Fatal(err)
	}
	<-got
	if n := trs[0].Stats().CrossMessages(); n != 1 {
		t.Fatalf("CrossMessages = %d after one send across the boundary, want 1", n)
	}
}

// rawHello is a hello frame whose body is the given ids, as varints.
func rawHello(ids ...int64) []byte {
	body := []byte{Version, byte(kindHello)}
	for _, id := range ids {
		body = binary.AppendVarint(body, id)
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// sendRaw dials addr, writes hello and then one protocol frame, and reports
// whether the transport kept the connection open: a dropped connection
// reads EOF, a kept one times out.
func sendRaw(t *testing.T, addr string, hello []byte) (kept bool) {
	t.Helper()
	frame, err := Encode(core.DoneMsg{Job: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(hello, frame...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	_, err = conn.Read(make([]byte, 1))
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// A hello that names no link into this transport — a dialing site that is
// not a neighbour of the dialed one, a dialed site hosted elsewhere, an id
// outside the topology, or a body that is not exactly the two sites — gets
// its connection dropped, and none of its frames reaches a handler.
func TestHelloNamingNoLinkIsDropped(t *testing.T) {
	topo := line3()
	one, err := Listen(NetConfig{Self: 2, Topo: topo, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	all, err := ListenLocal(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	var delivered atomic.Int64
	count := func(graph.NodeID, simnet.Payload) { delivered.Add(1) }
	one.Attach(2, count)
	for id := graph.NodeID(0); id < 3; id++ {
		all.Attach(id, count)
	}
	one.Start()
	all.Start()
	cases := []struct {
		name  string
		tr    *NetTransport
		hello []byte
	}{
		{"one-field hello from a non-neighbour", one, rawHello(0)},
		{"hello with a third field", one, rawHello(1, 2, 7)},
		{"non-neighbour", one, rawHello(0, 2)},
		{"dialed site hosted elsewhere", one, rawHello(1, 0)},
		{"dialing site out of range", one, rawHello(9, 2)},
		{"dialed site out of range", one, rawHello(1, 9)},
		{"one-field hello to several sites", all, rawHello(1)},
		{"non-neighbour to several sites", all, rawHello(0, 2)},
	}
	for _, c := range cases {
		if sendRaw(t, c.tr.Addr(), c.hello) {
			t.Errorf("%s: connection kept", c.name)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d frames of inadmissible links reached a handler", n)
	}
}

// A one-field hello is refused even from a neighbour of a one-site
// transport: Version is the only compatibility rule, so a hello names both
// ends of its link, and none of the connection's frames arrives.
func TestOneFieldHelloDropped(t *testing.T) {
	tr, err := Listen(NetConfig{Self: 2, Topo: line3(), Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var delivered atomic.Int64
	tr.Attach(2, func(graph.NodeID, simnet.Payload) { delivered.Add(1) })
	tr.Start()
	if sendRaw(t, tr.Addr(), rawHello(1)) {
		t.Fatal("one-field hello from a neighbour: connection kept")
	}
	time.Sleep(20 * time.Millisecond)
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d frames of a one-field hello reached a handler", n)
	}
}
