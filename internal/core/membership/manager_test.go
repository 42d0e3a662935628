package membership

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// harness runs one manager per site over the deterministic DES transport —
// the same execution model the cluster uses, without the protocol core.
// Managers are held behind an indirection so a test can replace one
// mid-run (the joiner scenario).
type harness struct {
	t      *testing.T
	topo   *graph.Graph
	engine *sim.Engine
	tr     *simnet.DES
	mgrs   []*Manager
	tables []*routing.Table
	adopts []int
}

func ring(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 0.05)
	}
	return g
}

func newHarness(t *testing.T, topo *graph.Graph, cfg Config) *harness {
	t.Helper()
	h := &harness{
		t:      t,
		topo:   topo,
		engine: sim.New(),
		mgrs:   make([]*Manager, topo.Len()),
		tables: make([]*routing.Table, topo.Len()),
		adopts: make([]int, topo.Len()),
	}
	h.tr = simnet.NewDES(h.engine, topo)
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		id := id
		h.mgrs[id] = h.newManager(id, cfg)
		h.tr.Attach(id, func(from graph.NodeID, p simnet.Payload) {
			h.dispatch(id, from, p)
		})
	}
	return h
}

func (h *harness) newManager(id graph.NodeID, cfg Config) *Manager {
	idx := int(id)
	return New(id, h.topo.Neighbors(id), 5, cfg, Hooks{
		Now:   h.tr.Now,
		After: func(d float64, fn func()) simnet.CancelFunc { return h.tr.After(id, d, fn) },
		Send: func(to graph.NodeID, p simnet.Payload) {
			if err := h.tr.Send(id, to, p); err != nil {
				h.t.Fatalf("send from %d to %d: %v", id, to, err)
			}
		},
		Adopt: func(tb *routing.Table) {
			h.tables[idx] = tb
			h.adopts[idx]++
		},
	})
}

func (h *harness) dispatch(id, from graph.NodeID, p simnet.Payload) {
	m := h.mgrs[id]
	switch msg := p.(type) {
	case Heartbeat:
		m.HandleHeartbeat(from, msg)
	case DeadNotice:
		m.HandleDead(from, msg)
	case AliveNotice:
		m.HandleAlive(from, msg)
	case JoinReq:
		m.HandleJoinReq(from, msg)
	case JoinAck:
		m.HandleJoinAck(from, msg)
	case routing.TableMsg:
		if !m.HandleTable(from, msg) {
			h.t.Fatalf("site %d refused table msg with epoch %d", id, msg.Epoch)
		}
	default:
		h.t.Fatalf("site %d got unexpected payload %q", id, p.Kind())
	}
}

func (h *harness) startAll() {
	for _, m := range h.mgrs {
		m.Start()
	}
}

func (h *harness) run() {
	h.t.Helper()
	if err := h.engine.Run(); err != nil {
		h.t.Fatal(err)
	}
}

// cfg30 is the tests' standard timing: 1-unit heartbeats, 3-unit suspicion,
// a 30-unit horizon so the DES drains.
func cfg30() Config {
	return Config{Enabled: true, HeartbeatEvery: 1, SuspectAfter: 3, Horizon: 30}
}

// TestDetectDeadAndRepair: a permanently crashed site is declared dead by
// its neighbors, the death floods, every survivor converges to the same
// epoch and repairs a table that routes around the corpse.
func TestDetectDeadAndRepair(t *testing.T) {
	h := newHarness(t, ring(5), cfg30())
	h.tr.SetFaults(simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 1, At: 5}}}, 0)
	h.startAll()
	h.run()

	for _, id := range []int{0, 2, 3, 4} {
		m := h.mgrs[id]
		if m.Alive(1) {
			t.Fatalf("survivor %d still believes site 1 alive", id)
		}
		if got, want := m.Epoch(), h.mgrs[0].Epoch(); got != want {
			t.Fatalf("survivor %d at epoch %d, survivor 0 at %d", id, got, want)
		}
		if m.Deaths() != 1 {
			t.Fatalf("survivor %d applied %d deaths, want 1", id, m.Deaths())
		}
		if m.Repairing() {
			t.Fatalf("survivor %d still repairing after drain", id)
		}
	}
	// The dead site's view is its own: it heard nothing and declared both
	// neighbors dead — consistent fail-silent behavior.
	if h.mgrs[1].Alive(0) || h.mgrs[1].Alive(2) {
		t.Fatal("partitioned site kept its neighbors alive despite total silence")
	}
	// Survivor 0 reaches 2 the long way round (0-4-3-2).
	t0 := h.tables[0]
	if t0 == nil {
		t.Fatal("survivor 0 never adopted a repaired table")
	}
	if nh, ok := t0.NextHop(2); !ok || nh != 4 {
		t.Fatalf("survivor 0 next hop to 2 = %v (ok=%v), want 4", nh, ok)
	}
	if _, ok := t0.Route(1); ok {
		t.Fatal("repaired table still routes to the dead site")
	}
}

// TestDuplicateDeathIsIdempotent: re-delivering an already-applied death
// notice must not bump the epoch or rebuild the table — the guard-by-epoch
// fix for the old repairAfterCrashes duplicate work.
func TestDuplicateDeathIsIdempotent(t *testing.T) {
	h := newHarness(t, ring(5), cfg30())
	h.tr.SetFaults(simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 1, At: 5}}}, 0)
	h.startAll()
	h.run()

	m := h.mgrs[0]
	epoch, adopts := m.Epoch(), h.adopts[0]
	m.HandleDead(4, DeadNotice{Site: 1, Inc: 0})
	m.HandleDead(2, DeadNotice{Site: 1, Inc: 0})
	if m.Epoch() != epoch {
		t.Fatalf("duplicate death moved the epoch %d -> %d", epoch, m.Epoch())
	}
	if h.adopts[0] != adopts {
		t.Fatal("duplicate death rebuilt an already-correct table")
	}
	if m.Deaths() != 1 {
		t.Fatalf("duplicate death double-counted: %d", m.Deaths())
	}
}

// TestRecoveryResurrects: a temporary partition ends, heartbeats resume,
// and every site resurrects the victim at a fresh incarnation — symmetric:
// the victim also resurrects the neighbors it had declared dead.
func TestRecoveryResurrects(t *testing.T) {
	h := newHarness(t, ring(5), cfg30())
	h.tr.SetFaults(simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 1, At: 5, For: 10}}}, 0)
	h.startAll()
	h.run()

	for id := 0; id < 5; id++ {
		m := h.mgrs[id]
		for peer := graph.NodeID(0); peer < 5; peer++ {
			if !m.Alive(peer) {
				t.Fatalf("site %d still believes %d dead after recovery", id, peer)
			}
		}
		if got, want := m.Epoch(), h.mgrs[0].Epoch(); got != want {
			t.Fatalf("site %d at epoch %d, site 0 at %d", id, got, want)
		}
		tb := h.tables[id]
		if tb == nil {
			t.Fatalf("site %d never repaired", id)
		}
		if tb.Len() != 5 {
			t.Fatalf("site %d repaired table knows %d destinations, want 5", id, tb.Len())
		}
	}
	if h.mgrs[0].Resurrections() == 0 {
		t.Fatal("no resurrection recorded despite recovery")
	}
}

// TestFalseDeathRefuted: a forged death notice about a live site is
// refuted — the victim bumps its incarnation, floods the correction, and
// every site converges back to an all-alive view at the same epoch.
func TestFalseDeathRefuted(t *testing.T) {
	h := newHarness(t, ring(5), cfg30())
	h.startAll()
	h.engine.At(2, func() {
		h.mgrs[2].HandleDead(3, DeadNotice{Site: 0, Inc: 0})
	})
	h.run()

	for id := 0; id < 5; id++ {
		m := h.mgrs[id]
		if !m.Alive(0) {
			t.Fatalf("site %d still believes the refuted death of 0", id)
		}
		if got, want := m.Epoch(), h.mgrs[0].Epoch(); got != want {
			t.Fatalf("site %d at epoch %d, site 0 at %d", id, got, want)
		}
	}
	if h.mgrs[0].SelfInc() != 1 {
		t.Fatalf("refuting site at incarnation %d, want 1", h.mgrs[0].SelfInc())
	}
}

// TestJoinHandshake: a replacement manager for a dead site joins through
// JoinReq/JoinAck, converges to the survivors' epoch and learns a full
// table; survivors learn routes back to it.
func TestJoinHandshake(t *testing.T) {
	h := newHarness(t, ring(5), cfg30())
	// Site 1's process dies at t=5 and is replaced at t=20: model the gap
	// as a crash window (the old process's traffic vanishes) and swap in a
	// fresh manager when the window ends.
	h.tr.SetFaults(simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 1, At: 5, For: 15}}}, 0)
	h.startAll()
	h.engine.At(20, func() {
		h.mgrs[1] = h.newManager(1, cfg30())
		h.mgrs[1].StartJoin()
	})
	h.run()

	joiner := h.mgrs[1]
	if joiner.Joining() || !joiner.Started() {
		t.Fatalf("joiner state: joining=%v started=%v", joiner.Joining(), joiner.Started())
	}
	if joiner.SelfInc() == 0 {
		t.Fatal("joiner kept incarnation 0 — the admission did not mint a fresh one")
	}
	for _, id := range []int{0, 2, 3, 4} {
		m := h.mgrs[id]
		if !m.Alive(1) {
			t.Fatalf("survivor %d did not admit the joiner", id)
		}
		if got, want := m.Epoch(), joiner.Epoch(); got != want {
			t.Fatalf("survivor %d at epoch %d, joiner at %d", id, got, want)
		}
		if _, ok := h.tables[id].Route(1); !ok {
			t.Fatalf("survivor %d has no route back to the joiner", id)
		}
	}
	if tb := h.tables[1]; tb == nil || tb.Len() != 5 {
		t.Fatalf("joiner table covers %v destinations, want all 5", tb)
	}
}

// TestJoinFastRestart: a replacement process joins BEFORE any survivor's
// suspicion timeout noticed the old one die — the admitting sites still
// believe the site alive. The admission must mint a fresh incarnation
// anyway (bumping the epoch everywhere) and the ack's table snapshot must
// hand the joiner a full routing view, or it would be stranded flooding
// epoch-0 tables that every receiver routes to the finished bootstrap.
func TestJoinFastRestart(t *testing.T) {
	h := newHarness(t, ring(5), cfg30())
	h.startAll()
	h.engine.At(10, func() {
		h.mgrs[1] = h.newManager(1, cfg30())
		h.mgrs[1].StartJoin()
	})
	h.run()

	joiner := h.mgrs[1]
	if joiner.Joining() || !joiner.Started() {
		t.Fatalf("joiner state: joining=%v started=%v", joiner.Joining(), joiner.Started())
	}
	if joiner.SelfInc() == 0 {
		t.Fatal("fast-restart join kept incarnation 0: the admission minted nothing")
	}
	for id := 0; id < 5; id++ {
		if got, want := h.mgrs[id].Epoch(), joiner.Epoch(); got != want {
			t.Fatalf("site %d at epoch %#x, joiner at %#x", id, got, want)
		}
		if h.mgrs[id].Epoch() == 0 {
			t.Fatalf("site %d still at the bootstrap epoch after the join", id)
		}
	}
	if tb := h.tables[1]; tb == nil || tb.Len() != 5 {
		t.Fatalf("joiner table covers %v, want all 5 destinations", tb)
	}
}

// TestWhenSettledDefersDuringRepair: callbacks registered mid-repair run
// only after the settle window; outside a repair they run inline.
func TestWhenSettledDefersDuringRepair(t *testing.T) {
	h := newHarness(t, ring(3), cfg30())
	h.startAll()
	ran := false
	h.mgrs[0].WhenSettled(func() { ran = true })
	if !ran {
		t.Fatal("settled callback did not run inline on a quiet manager")
	}
	var order []string
	h.engine.At(2, func() {
		h.mgrs[0].HandleDead(2, DeadNotice{Site: 1, Inc: 0})
		if !h.mgrs[0].Repairing() {
			t.Fatal("death did not start a repair")
		}
		h.mgrs[0].WhenSettled(func() { order = append(order, "deferred") })
		order = append(order, "registered")
	})
	h.run()
	if len(order) != 2 || order[0] != "registered" || order[1] != "deferred" {
		t.Fatalf("settle ordering %v, want [registered deferred]", order)
	}
}

// TestStaleEpochTableRejected: a table message from another epoch is
// consumed but never merged or adopted.
func TestStaleEpochTableRejected(t *testing.T) {
	h := newHarness(t, ring(3), cfg30())
	h.startAll()
	h.engine.At(2, func() {
		m := h.mgrs[0]
		adopts := h.adopts[0]
		if !m.HandleTable(1, routing.TableMsg{Epoch: 42, Entries: nil}) {
			t.Fatal("epoch-tagged table not consumed by the membership layer")
		}
		if h.adopts[0] != adopts {
			t.Fatal("stale-epoch table was adopted")
		}
		if m.HandleTable(1, routing.TableMsg{Epoch: 0}) {
			t.Fatal("bootstrap (epoch 0) table claimed by the membership layer")
		}
		if m.Snapshot().StaleTables != 1 {
			t.Fatalf("stale table counter %d, want 1", m.Snapshot().StaleTables)
		}
	})
	h.run()
}

// TestEpochIsViewDeterministic: the epoch depends only on the view, not on
// the order events were learned in.
func TestEpochIsViewDeterministic(t *testing.T) {
	topo := ring(4)
	mk := func() *Manager {
		return New(0, topo.Neighbors(0), 5, cfg30(), Hooks{
			Now:   func() float64 { return 0 },
			After: func(float64, func()) simnet.CancelFunc { return func() bool { return false } },
			Send:  func(graph.NodeID, simnet.Payload) {},
			Adopt: func(*routing.Table) {},
		})
	}
	a, b := mk(), mk()
	// a learns: 1 died, 2 died, 1 came back at inc 1.
	a.apply(Entry{Site: 1, Inc: 0, Dead: true})
	a.apply(Entry{Site: 2, Inc: 0, Dead: true})
	a.apply(Entry{Site: 1, Inc: 1, Dead: false})
	// b learns the final states directly, in the opposite order.
	b.apply(Entry{Site: 1, Inc: 1, Dead: false})
	b.apply(Entry{Site: 2, Inc: 0, Dead: true})
	if a.Epoch() != b.Epoch() {
		t.Fatalf("order-dependent epochs: %d vs %d", a.Epoch(), b.Epoch())
	}
	// Replays of older states are no-ops.
	if b.apply(Entry{Site: 1, Inc: 0, Dead: true}) {
		t.Fatal("stale death applied over a newer incarnation")
	}
	if b.apply(Entry{Site: 1, Inc: 1, Dead: true}) != true {
		t.Fatal("dead must win a tie at equal incarnation")
	}
	if b.apply(Entry{Site: 1, Inc: 1, Dead: false}) {
		t.Fatal("alive overrode dead at equal incarnation")
	}
}

// TestHeartbeatDigestConvergesLostNotice: nobody floods a death notice
// (suspicion is disabled and the seed below bypasses HandleDead), yet the
// whole ring converges on the death through the digest piggybacked on
// heartbeats.
func TestHeartbeatDigestConvergesLostNotice(t *testing.T) {
	cfg := cfg30()
	cfg.SuspectAfter = 100 // beyond the horizon: no natural detection
	h := newHarness(t, ring(5), cfg)
	// Site 1 is genuinely silent for the whole run, so no resurrection
	// evidence can refute the seeded death.
	h.tr.SetFaults(simnet.FaultPlan{Crashes: []simnet.Crash{{Site: 1, At: 0}}}, 0)
	h.startAll()
	// Inject the death knowledge at site 3 only, without flooding: the
	// apply below bypasses HandleDead (no forward), so only heartbeat
	// digests can carry it to the rest of the ring.
	h.engine.At(2, func() {
		m := h.mgrs[3]
		if !m.apply(Entry{Site: 1, Inc: 7, Dead: true}) {
			t.Fatal("seed apply failed")
		}
		m.repair(true)
	})
	h.run()
	for _, id := range []int{0, 2, 4} {
		if h.mgrs[id].Alive(1) {
			t.Fatalf("site %d never learned the death via digests", id)
		}
		if got, want := h.mgrs[id].Epoch(), h.mgrs[3].Epoch(); got != want {
			t.Fatalf("site %d epoch %d, want %d", id, got, want)
		}
	}
}

// TestHorizonStopsHeartbeats: the manager's timers stop at the horizon so
// a discrete-event run drains.
func TestHorizonStopsHeartbeats(t *testing.T) {
	cfg := cfg30()
	cfg.Horizon = 10
	h := newHarness(t, ring(3), cfg)
	h.startAll()
	h.run() // would never return if ticks re-armed forever
	if now := h.tr.Now(); now > 11 {
		t.Fatalf("engine ran to %v, expected to drain shortly after the 10-unit horizon", now)
	}
}

func ExampleManager() {
	// Two sites on a line watch each other; the example just shows the
	// construction shape — see the package tests for full scenarios.
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.1)
	m := New(0, topo.Neighbors(0), 5, Config{Enabled: true, Horizon: 5}, Hooks{
		Now:   func() float64 { return 0 },
		After: func(float64, func()) simnet.CancelFunc { return func() bool { return false } },
		Send:  func(graph.NodeID, simnet.Payload) {},
		Adopt: func(*routing.Table) {},
	})
	fmt.Println(m.Epoch(), m.Alive(1))
	// Output: 0 true
}

// TestJoinHandoverIsOneTableMsg: an admitting site answers a JoinReq with
// a JoinAck, and its repair flood then carries its whole table to the
// joiner as one TableMsg at its epoch. Replaying every frame the acker sent
// to the joiner, in order, the joiner merges that one table and refuses
// none, ending at the acker's epoch with every route. A retry that admits
// no one is answered with the ack and the table alike. Hand-driven (no
// transport) so the re-flood path cannot mask a broken handover.
func TestJoinHandoverIsOneTableMsg(t *testing.T) {
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.05)
	noop := Hooks{
		Now:   func() float64 { return 0 },
		After: func(float64, func()) simnet.CancelFunc { return func() bool { return false } },
		Send:  func(graph.NodeID, simnet.Payload) {},
		Adopt: func(*routing.Table) {},
	}

	var sent []simnet.Payload
	ah := noop
	ah.Send = func(to graph.NodeID, p simnet.Payload) {
		if to == 1 {
			sent = append(sent, p)
		}
	}
	acker := New(0, topo.Neighbors(0), 5, cfg30(), ah)
	acker.Start()

	// Hand the acker a wide table: 1300 synthetic destinations learned
	// through its one neighbor.
	const extra = 1300
	big := routing.NewTable(0, topo.Neighbors(0))
	routes := make([]routing.WireRoute, extra)
	for i := range routes {
		routes[i] = routing.WireRoute{
			Dest: graph.NodeID(2 + i), Dist: 0.1 * float64(i+1),
			PathHops: 2, MinHops: 2,
		}
	}
	if !big.Merge(1, 0.05, routes) {
		t.Fatal("seeding the wide table changed nothing")
	}
	acker.table = big

	acker.HandleJoinReq(1, JoinReq{})

	// Links keep order: the joiner gets the acker's frames as sent.
	var adopted *routing.Table
	jh := noop
	jh.Adopt = func(tb *routing.Table) { adopted = tb }
	joiner := New(1, topo.Neighbors(1), 5, cfg30(), jh)
	joiner.StartJoin()
	var acks, tables int
	for _, p := range sent {
		switch m := p.(type) {
		case Heartbeat:
			joiner.HandleHeartbeat(0, m)
		case AliveNotice:
			joiner.HandleAlive(0, m)
		case JoinAck:
			acks++
			if m.Epoch != acker.Epoch() {
				t.Fatalf("ack at epoch %#x, want the acker's %#x", m.Epoch, acker.Epoch())
			}
			joiner.HandleJoinAck(0, m)
		case routing.TableMsg:
			tables++
			if m.Epoch != acker.Epoch() || len(m.Entries) != big.Len() {
				t.Fatalf("table at epoch %#x with %d routes, want the acker's epoch %#x and %d routes",
					m.Epoch, len(m.Entries), acker.Epoch(), big.Len())
			}
			if !joiner.HandleTable(0, m) {
				t.Fatal("joiner left the handover to the bootstrap")
			}
		default:
			t.Fatalf("acker sent the joiner %q", p.Kind())
		}
	}
	if acks != 1 || tables != 1 {
		t.Fatalf("acker sent the joiner %d acks and %d tables, want one of each", acks, tables)
	}
	if stale := joiner.Snapshot().StaleTables; stale != 0 {
		t.Fatalf("joiner refused %d tables of the handover", stale)
	}
	if joiner.Joining() || !joiner.Started() {
		t.Fatalf("joiner state: joining=%v started=%v", joiner.Joining(), joiner.Started())
	}
	if joiner.Epoch() != acker.Epoch() {
		t.Fatalf("joiner at epoch %#x, acker at %#x", joiner.Epoch(), acker.Epoch())
	}
	if adopted == nil {
		t.Fatal("joiner never adopted a table")
	}
	for _, r := range append(routes, routing.WireRoute{Dest: 0}) {
		if _, ok := adopted.Route(r.Dest); !ok {
			t.Fatalf("joiner table missing destination %d after the handover", r.Dest)
		}
	}

	// A retry below the minted incarnation admits no one: the answer is the
	// ack and the table, nothing else.
	sent = nil
	acker.HandleJoinReq(1, JoinReq{})
	if len(sent) != 2 {
		t.Fatalf("retry answered with %d messages, want an ack and a table", len(sent))
	}
	if _, ok := sent[0].(JoinAck); !ok {
		t.Fatalf("retry answer starts with %q, want a JoinAck", sent[0].Kind())
	}
	if tm, ok := sent[1].(routing.TableMsg); !ok || tm.Epoch != acker.Epoch() || len(tm.Entries) != big.Len() {
		t.Fatalf("retry ack followed by %q, want the acker's table at its epoch", sent[1].Kind())
	}
}
