// Package routing implements the paper's §7: construction of the Potential
// Computing Sphere (PCS) by a distributed all-pairs shortest-paths algorithm
// (the distance-vector scheme of Bertsekas–Gallager [2]) organized into
// synchronous logical phases and *interrupted* after a fixed number of
// phases to limit network flooding.
//
// Counting: a node starts knowing itself and its immediate neighbors — the
// paper's start condition, equivalent to one completed phase — and each
// message round extends the set of discovered paths by one edge. After
// RoundsForRadius(h) = 2h-1 rounds every table holds the minimum delay over
// paths of at most 2h edges, which is the paper's "algorithm is stopped
// after 2h phases": every node of the PCS of k (hop-radius h) discovers a
// path to every other node of that PCS.
//
// Each route tracks two metrics: the minimum *delay* (with the first hop of
// that path, used for forwarding) and the minimum *hop count* over any
// discovered path (used for sphere membership: "sites up to h hops away").
// The two differ when edge weights violate the triangle inequality, which
// the paper explicitly allows.
//
// Representation: a Table is one slice of routes sorted by destination,
// and a Node's round inbox is indexed by neighbor position; nothing here
// holds a map. A round merges its neighbors' tables in ascending neighbor
// ID order, because Route.better's tolerance makes the order candidates
// meet in decide ties (see Table.Merge for the input contract).
//
// What a round sends: round 0 sends the start table, and every later round
// only the lines whose wire form changed since the node's previous round.
// Every round still sends one TableMsg to every neighbor, an empty one when
// nothing changed, so rounds synchronise and count exactly as if whole
// tables went. The receiver loses nothing: it merged each unchanged line
// when that line was last sent, its own line has only improved since, and
// merging a candidate no better than the line it meets changes nothing.
// (Route.better's tolerance is the one caveat: distances closer than distEps
// compare as ties, so "improved" is not transitive there; the route goldens
// and the CentralTables comparisons hold every route to the full-table
// flow's.)
package routing

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// Route is one routing-table line: <destination, distance, next hop> plus
// the hop metrics described in the package comment.
type Route struct {
	Dest     graph.NodeID
	Dist     float64      // minimum discovered delay to Dest
	NextHop  graph.NodeID // first hop of the minimum-delay path
	PathHops int          // edges on the minimum-delay path
	MinHops  int          // fewest edges on any discovered path
}

const distEps = 1e-9

// better reports whether candidate c should replace current r as the
// min-delay route (deterministic tie-breaking: delay, then path hops, then
// next-hop ID).
func (r Route) better(c Route) bool {
	if c.Dist < r.Dist-distEps {
		return true
	}
	if c.Dist > r.Dist+distEps {
		return false
	}
	if c.PathHops != r.PathHops {
		return c.PathHops < r.PathHops
	}
	return c.NextHop < r.NextHop
}

// Table is one site's routing table: its lines in one slice sorted by
// destination. Lookups are a binary search (see find), Snapshot, Destinations and
// Sphere are linear projections in ID order, and Merge folds a neighbor's
// sorted snapshot in with one two-pointer pass. The slice is the table's only
// representation and Merge rewrites it in place after the table has been
// adopted, so no caller may keep a []Route of it without copying.
type Table struct {
	Self    graph.NodeID
	routes  []line // sorted by Dest, one line per destination
	spare   []line // merge's second backing array, swapped with routes
	changed int    // lines marked changed (see takeChanges)
}

// line is one table line and whether its wire form changed since the last
// takeChanges: the bootstrap's next round sends exactly the marked lines.
// Repair floods merged after the bootstrap mark lines too; nothing takes
// those marks.
type line struct {
	Route
	changed bool
}

// NewTable builds a table holding only the start condition: self plus the
// given immediate neighbors (distinct, none of them self). Every line starts
// marked changed, so the first takeChanges is the start table.
func NewTable(self graph.NodeID, neighbors []graph.Edge) *Table {
	routes := make([]line, 0, len(neighbors)+1)
	routes = append(routes, line{Route{Dest: self, Dist: 0, NextHop: self, PathHops: 0, MinHops: 0}, true})
	for _, e := range neighbors {
		routes = append(routes, line{Route{Dest: e.To, Dist: e.Delay, NextHop: e.To, PathHops: 1, MinHops: 1}, true})
	}
	slices.SortFunc(routes, func(a, b line) int { return cmp.Compare(a.Dest, b.Dest) })
	return &Table{Self: self, routes: routes, changed: len(routes)}
}

// find locates the line for dest: its index and whether it is there. A
// table that knows every site below dest holds dest at index dest — the
// common case of a flat table, whose sphere covers most of a small network
// — so that slot is probed before the binary search.
func (t *Table) find(dest graph.NodeID) (int, bool) {
	if i := int(dest); i >= 0 && i < len(t.routes) && t.routes[i].Dest == dest {
		return i, true
	}
	lo, hi := 0, len(t.routes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.routes[m].Dest < dest {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.routes) && t.routes[lo].Dest == dest
}

// Route returns the table line for dest.
func (t *Table) Route(dest graph.NodeID) (Route, bool) {
	if i, ok := t.find(dest); ok {
		return t.routes[i].Route, true
	}
	return Route{}, false
}

// Dist returns the known minimum delay to dest, or +Inf.
func (t *Table) Dist(dest graph.NodeID) float64 {
	if i, ok := t.find(dest); ok {
		return t.routes[i].Dist
	}
	return math.Inf(1)
}

// NextHop returns the neighbor to forward to for dest.
func (t *Table) NextHop(dest graph.NodeID) (graph.NodeID, bool) {
	i, ok := t.find(dest)
	if !ok || dest == t.Self {
		return 0, false
	}
	return t.routes[i].NextHop, true
}

// Len reports the number of known destinations (including self).
func (t *Table) Len() int { return len(t.routes) }

// StateBytes approximates the encoded size of the table, one wire line per
// destination; StateEntries counts its lines. They feed the
// rtds_node_routing_table_bytes / _entries gauges and the E15 scale
// sweep's per-site state curve.
func (t *Table) StateBytes() int { return 8 + wireRouteBytes*len(t.routes) }

// StateEntries counts the table's lines (see StateBytes).
func (t *Table) StateEntries() int { return len(t.routes) }

// Destinations lists known destinations in increasing ID order.
func (t *Table) Destinations() []graph.NodeID {
	out := make([]graph.NodeID, len(t.routes))
	for i, r := range t.routes {
		out[i] = r.Dest
	}
	return out
}

// Sphere returns the PCS of radius h rooted at this table's node: all known
// destinations within h hops (self included), sorted by ID.
func (t *Table) Sphere(h int) []graph.NodeID {
	var out []graph.NodeID
	for _, r := range t.routes {
		if r.MinHops <= h {
			out = append(out, r.Dest)
		}
	}
	return out
}

// SphereDelayDiameter returns the largest known delay from this node to any
// member of its radius-h sphere — the initiator's over-estimate ω before it
// has collected the members' own vectors.
func (t *Table) SphereDelayDiameter(h int) float64 {
	var diam float64
	for _, r := range t.routes {
		if r.MinHops <= h && r.Dist > diam {
			diam = r.Dist
		}
	}
	return diam
}

// Merge integrates a neighbor's table snapshot received over a link of the
// given delay, reporting whether anything changed. It is the receiving half
// of both the §7 bootstrap (via Node) and the membership layer's epoch-
// tagged repair floods, which drive it directly.
//
// entries is shared — one payload goes to every neighbor — and is never
// written. It must be sorted strictly ascending by destination, as every
// snapshot and round payload is and as the wire decoder requires of a
// peer's. The merged table is written into the spare backing array, which
// then swaps with the current one, so once both have grown to the table's
// size a round allocates nothing. Candidates for one destination meet in
// the order the caller merges its neighbors in, which matters: better's
// tolerance makes it non-transitive. A new line, or one whose distance or
// hop counts moved, is marked changed; a new next hop alone leaves the wire
// form as it was.
//
//lint:hotpath -- every bootstrap round merges one snapshot per neighbor, and a repair flood one per hop
func (t *Table) Merge(from graph.NodeID, linkDelay float64, entries []WireRoute) bool {
	cur, out := t.routes, t.spare[:0]
	if cap(out) < len(cur) {
		out = make([]line, 0, len(cur)+len(entries)) //lint:allow hotalloc -- spare growth: the table gained destinations since the spare was last sized
	}
	changed := false
	i := 0
	for _, e := range entries {
		if e.Dest == t.Self {
			continue
		}
		for i < len(cur) && cur[i].Dest < e.Dest {
			out = append(out, cur[i])
			i++
		}
		cand := Route{
			Dest:     e.Dest,
			Dist:     linkDelay + e.Dist,
			NextHop:  from,
			PathHops: 1 + e.PathHops,
			MinHops:  1 + e.MinHops,
		}
		if i == len(cur) || cur[i].Dest != e.Dest {
			out = append(out, line{cand, true})
			t.changed++
			changed = true
			continue
		}
		old := cur[i]
		i++
		upd := old
		if old.better(cand) {
			upd.Dist = cand.Dist
			upd.NextHop = cand.NextHop
			upd.PathHops = cand.PathHops
		}
		if cand.MinHops < upd.MinHops {
			upd.MinHops = cand.MinHops
		}
		if upd.Route != old.Route {
			changed = true
			if !upd.changed && upd.wire() != old.wire() {
				upd.changed = true
				t.changed++
			}
		}
		out = append(out, upd)
	}
	out = append(out, cur[i:]...)
	t.routes, t.spare = out, cur
	return changed
}

// Snapshot copies the table into its on-the-wire form, sorted by
// destination — the payload of a repair re-flood or a join handover.
func (t *Table) Snapshot() []WireRoute {
	out := make([]WireRoute, len(t.routes))
	for i, r := range t.routes {
		out[i] = r.wire()
	}
	return out
}

// takeChanges returns the wire form of every line marked changed — the whole
// table on its first call — sorted by destination, and clears the marks: the
// payload of one bootstrap round. The slice has exactly the marked lines'
// length (nil when none is) and is never written again, so one result goes
// to every neighbor.
func (t *Table) takeChanges() []WireRoute {
	if t.changed == 0 {
		return nil
	}
	out := make([]WireRoute, 0, t.changed)
	for i := 0; len(out) < t.changed; i++ {
		if l := &t.routes[i]; l.changed {
			out = append(out, l.wire())
			l.changed = false
		}
	}
	t.changed = 0
	return out
}

// wire is the line's on-the-wire form.
func (r Route) wire() WireRoute {
	return WireRoute{Dest: r.Dest, Dist: r.Dist, PathHops: r.PathHops, MinHops: r.MinHops}
}

// WireRoute is the on-the-wire form of a table line. NextHop is not sent:
// the receiver's next hop toward the entry is the sender itself.
type WireRoute struct {
	Dest     graph.NodeID
	Dist     float64
	PathHops int
	MinHops  int
}

// wireRouteBytes approximates the encoded size of one table line:
// destination (4), distance (8), two hop counters (2+2).
const wireRouteBytes = 16

// TableMsg is the payload exchanged in each phase of PCS construction and,
// epoch-tagged, in the incremental re-floods that repair tables after a
// membership change. Epoch 0 is the §7 bootstrap (routed to the per-node
// protocol state machine): round 0 carries the sender's start table and
// every later round only the lines that changed since the sender's previous
// round, possibly none. A positive epoch names the membership view the
// entries were computed under and carries the sender's whole table;
// receivers on a different epoch discard the message instead of mixing
// routes across inconsistent views.
type TableMsg struct {
	Round   int
	Epoch   uint64
	Entries []WireRoute
}

// Kind implements simnet.Payload.
func (TableMsg) Kind() string { return "pcs.table" }

// SizeBytes implements simnet.Payload: header plus the table lines.
func (m TableMsg) SizeBytes() int { return 8 + wireRouteBytes*len(m.Entries) }

// RoundsForRadius converts the paper's "stop after 2h phases" into message
// rounds under our counting (start condition == first phase).
func RoundsForRadius(h int) int {
	if h < 1 {
		return 0
	}
	return 2*h - 1
}

// ---------------------------------------------------------------------------
// Per-node protocol state machine

// Node runs one site's part of the interrupted distance-vector protocol.
// It is driven by its owner: the owner must deliver incoming TableMsg
// payloads to HandleTable and provide a send function.
type Node struct {
	table   *Table
	nbrs    []graph.Edge // direct links ascending by neighbor ID; Delay is the raw link delay
	rounds  int          // total rounds to run
	round   int          // current round (0-based)
	started bool         // Start has broadcast round 0
	// inbox holds the tables of rounds round and round+1 (slot round&1),
	// one per neighbor, indexed like nbrs; filled counts each round's
	// arrivals. A neighbor is never further ahead: its round r+2 table
	// needs this node's round r+1 table, which only completing round r
	// sends.
	inbox  [2][]inboxSlot
	filled [2]int
	done   bool
	send   func(to graph.NodeID, p simnet.Payload)
	onDone func(*Table)
}

// inboxSlot is one neighbor's table for one round.
type inboxSlot struct {
	entries []WireRoute
	got     bool
}

// NewNode creates the state machine for one site. onDone fires once, when
// the configured number of rounds has completed (immediately if rounds==0).
func NewNode(self graph.NodeID, neighbors []graph.Edge, rounds int,
	send func(to graph.NodeID, p simnet.Payload), onDone func(*Table)) *Node {
	nbrs := slices.Clone(neighbors)
	slices.SortFunc(nbrs, func(a, b graph.Edge) int { return cmp.Compare(a.To, b.To) })
	slots := make([]inboxSlot, 2*len(nbrs))
	return &Node{
		table:  NewTable(self, nbrs),
		nbrs:   nbrs,
		rounds: rounds,
		inbox:  [2][]inboxSlot{slots[:len(nbrs)], slots[len(nbrs):]},
		send:   send,
		onDone: onDone,
	}
}

// Start begins round 0 by broadcasting the start-condition table. Tables
// received before Start (possible under real concurrency when a neighbor
// starts earlier) are buffered by HandleTable and processed here.
func (n *Node) Start() {
	if n.rounds <= 0 || len(n.nbrs) == 0 {
		n.finish()
		return
	}
	n.started = true
	n.broadcast()
	n.advance()
}

// broadcast sends this round's lines — the start table in round 0, the
// lines changed since the previous round after it — to every neighbor,
// boxed once: the payload is immutable, so every neighbor receives the same
// one.
func (n *Node) broadcast() {
	var msg simnet.Payload = TableMsg{Round: n.round, Entries: n.table.takeChanges()}
	for _, e := range n.nbrs {
		n.send(e.To, msg)
	}
}

// HandleTable processes one neighbor's table message. A table of the next
// round (a faster neighbor) is buffered. Anything else is dropped: tables
// after interruption, tables of rounds no neighbor can send, and tables
// from a site that is not a neighbor — there is no link to weigh its routes
// by (a stray epoch-0 table over TCP, an inter-region neighbor's table under
// the hierarchy), and counting it would close a round early.
func (n *Node) HandleTable(from graph.NodeID, msg TableMsg) {
	if n.done {
		return // stragglers after interruption are dropped by design
	}
	i, ok := graph.SearchEdges(n.nbrs, from)
	if !ok || (msg.Round != n.round && msg.Round != n.round+1) {
		return
	}
	b := msg.Round & 1
	slot := &n.inbox[b][i]
	if !slot.got {
		slot.got = true
		n.filled[b]++
	}
	slot.entries = msg.Entries
	n.advance()
}

// advance completes as many rounds as fully received input allows. It is a
// no-op until Start has broadcast this node's own round-0 table: advancing
// earlier would skip that broadcast and stall every neighbor.
func (n *Node) advance() {
	for n.started && !n.done {
		b := n.round & 1
		if n.filled[b] < len(n.nbrs) {
			return
		}
		// Merge deterministically: neighbors in increasing ID order. The
		// raw link delay weighs each table, not the table's own entry for
		// the neighbor: a multi-edge path may have replaced that when
		// weights violate the triangle inequality. A neighbor whose table
		// did not change sent nothing to merge.
		for i, e := range n.nbrs {
			if entries := n.inbox[b][i].entries; len(entries) > 0 {
				n.table.Merge(e.To, e.Delay, entries)
			}
			n.inbox[b][i] = inboxSlot{}
		}
		n.filled[b] = 0
		n.round++
		if n.round >= n.rounds {
			n.finish()
			return
		}
		n.broadcast()
	}
}

// Table returns the node's current table (live; owners must not mutate).
func (n *Node) Table() *Table { return n.table }

// Done reports whether the protocol has terminated at this node.
func (n *Node) Done() bool { return n.done }

func (n *Node) finish() {
	if n.done {
		return
	}
	n.done = true
	n.inbox = [2][]inboxSlot{}
	// The bootstrap's merges are over. A copy at the exact size sheds the
	// slack that merge's growth left (about what the change marks cost per
	// line); a repair flood re-grows the spare.
	n.table.routes, n.table.spare = slices.Clone(n.table.routes), nil
	if n.onDone != nil {
		n.onDone(n.table)
	}
}
