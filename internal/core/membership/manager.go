package membership

import (
	"sort"

	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

// Hooks is how the Manager reaches its site: everything it does — timers,
// direct-neighbor sends, table adoption, tracing — goes through the owner,
// so the manager itself never touches a transport or a lock. All hooks are
// invoked from the site's execution context.
type Hooks struct {
	// Now reports the current virtual time.
	Now func() float64
	// After schedules fn in the site's execution context.
	After func(d float64, fn func()) simnet.CancelFunc
	// Send delivers a payload to a direct topology neighbor.
	Send func(to graph.NodeID, p simnet.Payload)
	// Adopt installs a repaired routing table into the site. The manager
	// retains and mutates the table between adoptions; every mutation is
	// followed by an Adopt in the same event, so the site's derived state
	// is never stale across events.
	Adopt func(t *routing.Table)
	// Current returns the site's current routing table (nil before the
	// bootstrap finishes). The first additive repair seeds from it instead
	// of discarding the bootstrap's knowledge, and a join handover sends
	// it so a joiner starts from a full view of the network.
	Current func() *routing.Table
	// Event reports a membership transition (optional).
	Event func(Note)
}

// Note is one membership transition, as plain values: the manager formats nothing.
type Note struct {
	Kind  string       // member-dead, member-alive, member-refute, member-join, joined, join-failed, route-repair, repair-settled
	Site  graph.NodeID // the site whose view entry moved
	From  graph.NodeID // the site the news came from; this manager's own site when it concluded it alone
	Inc   uint64       // the incarnation the entry moved to
	Epoch uint64       // the route epoch (route-repair, repair-settled, joined)
}

// siteState is one entry of the membership view. Sites absent from the map
// are in the default state: alive at incarnation 0.
type siteState struct {
	inc  uint64
	dead bool
}

// stateMix is the entry's contribution to the route epoch: a splitmix64
// hash of the packed (site, inc, dead) state. The epoch is the XOR of all
// entries' contributions, so it is order-independent, incrementally
// updatable, and depends only on the current view — sites that skipped
// intermediate states (a digest after a partition) still converge to the
// same epoch, and two DIFFERENT views sharing an epoch (which would let
// tables computed under inconsistent membership merge) needs a 64-bit
// hash collision rather than a mere count coincidence. Default entries
// contribute 0, so the all-alive bootstrap view has epoch 0 — reserved
// for bootstrap-phase table messages.
func stateMix(site graph.NodeID, st siteState) uint64 {
	if st == (siteState{}) {
		return 0
	}
	x := uint64(site)<<33 ^ st.inc<<1 ^ b2u(st.dead)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Manager runs one site's membership protocol. It is not safe for
// concurrent use: every method must be called from the site's execution
// context, like the site itself.
type Manager struct {
	self  graph.NodeID
	cfg   Config
	hooks Hooks

	nbrs      []graph.Edge // direct links, sorted by neighbor ID (graph.Neighbors order)
	linkDelay map[graph.NodeID]float64

	view      map[graph.NodeID]siteState // non-default entries only (self included once bumped)
	epoch     uint64
	lastHeard map[graph.NodeID]float64

	table       *routing.Table // repair table; nil until the first repair or join
	floodRounds int            // re-broadcasts per epoch, the flood's interruption bound
	sendsLeft   int            // what is left of it in the current epoch

	repairing bool
	settle    simnet.CancelFunc
	onSettled []func()

	started bool
	startAt float64

	joining   bool
	joinTries int

	// Counters for observability (nodeapi, experiments).
	deaths, resurrections, floodsSent, staleTables int
}

// New builds a manager for one site over its direct links, re-flooding its
// table at most floodRounds times per epoch. Call Start (an established
// site, post-bootstrap) or StartJoin (a joiner) once the transport is
// running.
func New(self graph.NodeID, neighbors []graph.Edge, floodRounds int, cfg Config, hooks Hooks) *Manager {
	cfg = cfg.WithDefaults()
	delays := make(map[graph.NodeID]float64, len(neighbors))
	for _, e := range neighbors {
		delays[e.To] = e.Delay
	}
	if hooks.Event == nil {
		hooks.Event = func(Note) {}
	}
	return &Manager{
		self:        self,
		floodRounds: floodRounds,
		cfg:         cfg,
		hooks:       hooks,
		nbrs:        neighbors,
		linkDelay:   delays,
		view:        make(map[graph.NodeID]siteState),
		lastHeard:   make(map[graph.NodeID]float64),
	}
}

// Start begins heartbeating and suspicion checks. Established sites call it
// once their bootstrap table is sealed; the joiner path calls it internally
// after the handshake.
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	m.startAt = m.hooks.Now()
	for _, e := range m.nbrs {
		m.lastHeard[e.To] = m.startAt
	}
	m.tick()
}

// Started reports whether the manager is running (heartbeats armed).
func (m *Manager) Started() bool { return m.started }

// state reads a site's view entry (default: alive at incarnation 0).
func (m *Manager) state(site graph.NodeID) siteState { return m.view[site] }

// setState writes a view entry and keeps the epoch in sync.
func (m *Manager) setState(site graph.NodeID, st siteState) {
	m.epoch ^= stateMix(site, m.view[site]) ^ stateMix(site, st)
	m.view[site] = st
}

// Epoch reports the current route epoch.
func (m *Manager) Epoch() uint64 { return m.epoch }

// SelfInc reports this site's own incarnation.
func (m *Manager) SelfInc() uint64 { return m.state(m.self).inc }

// Alive reports whether the view holds site as alive.
func (m *Manager) Alive(site graph.NodeID) bool { return !m.state(site).dead }

// Deaths and Resurrections report how many membership transitions this
// site has applied (including re-learned ones from digests).
func (m *Manager) Deaths() int        { return m.deaths }
func (m *Manager) Resurrections() int { return m.resurrections }

// ---------------------------------------------------------------------------
// Heartbeats and suspicion

// tick sends one heartbeat round and runs the suspicion check, then
// re-arms itself until the horizon.
func (m *Manager) tick() {
	now := m.hooks.Now()
	if m.cfg.Horizon > 0 && now-m.startAt >= m.cfg.Horizon-1e-9 {
		return // horizon reached: no further beacons or suspicion checks
	}
	hb := Heartbeat{Inc: m.state(m.self).inc, Digest: m.digest()}
	for _, e := range m.nbrs {
		// Heartbeat every topology neighbor, dead-believed or not: the
		// beacon is what lets a recovered (or wrongly suspected) neighbor
		// be resurrected, and what lets it resurrect us.
		m.hooks.Send(e.To, hb)
	}
	for _, e := range m.nbrs {
		n := e.To
		if !m.state(n).dead && now-m.lastHeard[n] > m.cfg.SuspectAfter {
			m.declareDead(n)
		}
	}
	m.hooks.After(m.cfg.HeartbeatEvery, m.tick)
}

// digest lists every non-default view entry, self included, sorted by site
// for determinism.
func (m *Manager) digest() []Entry {
	if len(m.view) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(m.view))
	for _, site := range determinism.SortedKeys(m.view) {
		st := m.view[site]
		out = append(out, Entry{Site: site, Inc: st.inc, Dead: st.dead})
	}
	return out
}

// declareDead is the local failure detector's verdict on a silent neighbor.
func (m *Manager) declareDead(n graph.NodeID) {
	inc := m.state(n).inc
	if !m.apply(Entry{Site: n, Inc: inc, Dead: true}) {
		return
	}
	m.hooks.Event(Note{Kind: "member-dead", Site: n, From: m.self, Inc: inc})
	m.flood(DeadNotice{Site: n, Inc: inc})
	m.repair(true)
}

// HandleHeartbeat processes a neighbor's beacon.
func (m *Manager) HandleHeartbeat(from graph.NodeID, hb Heartbeat) {
	if !m.started {
		return
	}
	m.lastHeard[from] = m.hooks.Now()
	changed, died := false, false
	st := m.state(from)
	if st.dead {
		// Direct evidence of life from a dead-believed site: resurrect it
		// at a strictly newer incarnation and flood the news. The site
		// itself cannot know it was declared dead (fail-silent crashes are
		// partitions), so the observer mints the incarnation.
		inc := max(hb.Inc, st.inc) + 1
		if m.apply(Entry{Site: from, Inc: inc, Dead: false}) {
			m.hooks.Event(Note{Kind: "member-alive", Site: from, From: m.self, Inc: inc})
			m.flood(AliveNotice{Site: from, Inc: inc})
			changed = true
		}
	} else if hb.Inc > st.inc {
		// Quiet incarnation refresh (the site refuted an old death we
		// never learned of). Epoch moves with it, so repair.
		if m.apply(Entry{Site: from, Inc: hb.Inc, Dead: false}) {
			m.flood(AliveNotice{Site: from, Inc: hb.Inc})
			changed = true
		}
	}
	if c, d := m.applyDigest(hb.Digest); c {
		changed, died = true, died || d
	}
	if changed {
		m.repair(died)
	}
}

// HandleDead processes a flooded death notice.
func (m *Manager) HandleDead(from graph.NodeID, n DeadNotice) {
	if !m.started {
		return
	}
	if n.Site == m.self {
		m.refute(n.Inc)
		return
	}
	if !m.apply(Entry{Site: n.Site, Inc: n.Inc, Dead: true}) {
		return
	}
	m.hooks.Event(Note{Kind: "member-dead", Site: n.Site, From: from, Inc: n.Inc})
	m.flood(DeadNotice{Site: n.Site, Inc: n.Inc})
	m.repair(true)
}

// HandleAlive processes a flooded resurrection notice.
func (m *Manager) HandleAlive(from graph.NodeID, n AliveNotice) {
	if !m.started {
		return
	}
	if n.Site == m.self {
		// News about ourselves: adopt a higher incarnation quietly (our own
		// admission echoing back); we are obviously alive.
		st := m.state(m.self)
		if n.Inc > st.inc {
			m.setState(m.self, siteState{inc: n.Inc})
			m.repair(false)
		}
		return
	}
	if !m.apply(Entry{Site: n.Site, Inc: n.Inc, Dead: false}) {
		return
	}
	m.hooks.Event(Note{Kind: "member-alive", Site: n.Site, From: from, Inc: n.Inc})
	m.flood(AliveNotice{Site: n.Site, Inc: n.Inc})
	m.repair(false)
}

// refute answers a death notice about ourselves: bump past the incarnation
// we were declared dead at and flood the correction.
func (m *Manager) refute(deadInc uint64) {
	st := m.state(m.self)
	if st.inc > deadInc {
		return // already refuted
	}
	inc := deadInc + 1
	m.setState(m.self, siteState{inc: inc})
	m.hooks.Event(Note{Kind: "member-refute", Site: m.self, From: m.self, Inc: inc})
	m.flood(AliveNotice{Site: m.self, Inc: inc})
	m.repair(false)
}

// apply runs one guarded view transition; it reports whether the view
// changed. Dead wins ties at equal incarnations; alive needs a strictly
// newer one.
func (m *Manager) apply(e Entry) bool {
	st := m.state(e.Site)
	switch {
	case e.Inc > st.inc:
	case e.Inc == st.inc && e.Dead && !st.dead:
	default:
		return false
	}
	if e.Dead && !st.dead {
		m.deaths++
	}
	if !e.Dead && st.dead {
		m.resurrections++
	}
	m.setState(e.Site, siteState{inc: e.Inc, dead: e.Dead})
	return true
}

// applyDigest folds a peer's digest into the view. It reports whether
// anything changed and whether any change was a death (which forces a
// table reset).
func (m *Manager) applyDigest(digest []Entry) (changed, died bool) {
	for _, e := range digest {
		if e.Site == m.self {
			if e.Dead {
				m.refute(e.Inc)
			} else if e.Inc > m.state(m.self).inc {
				m.setState(m.self, siteState{inc: e.Inc})
				changed = true
			}
			continue
		}
		wasDead := m.state(e.Site).dead
		if m.apply(e) {
			changed = true
			if e.Dead && !wasDead {
				died = true
			}
		}
	}
	return changed, died
}

// flood sends a notice to every alive-believed direct neighbor. Combined
// with apply's idempotence this is a standard flood: each site forwards a
// notice exactly once, the first time it applies.
func (m *Manager) flood(p simnet.Payload) {
	for _, e := range m.nbrs {
		if !m.state(e.To).dead {
			m.hooks.Send(e.To, p)
		}
	}
}

// ---------------------------------------------------------------------------
// Epoch-tagged table repair

// repair reacts to a view change: the epoch already moved (setState), so
// rebuild or keep the table, reset the flood budget and re-flood. reset
// forces a rebuild from the start condition — required after a death, when
// routes through the corpse must not survive; additive changes (joins,
// resurrections, incarnation refreshes) keep the table and let the flood
// merge the new member's routes in.
func (m *Manager) repair(reset bool) {
	if reset {
		m.table = routing.NewTable(m.self, m.aliveNeighborEdges())
	} else if m.table == nil {
		// First repair is additive (a join, a refutation): take ownership
		// of the site's bootstrap table rather than throwing its multi-hop
		// knowledge away — nothing died, every route in it is still sound.
		if m.table = m.current(); m.table == nil {
			m.table = routing.NewTable(m.self, m.aliveNeighborEdges())
		}
	}
	m.sendsLeft = m.floodRounds
	m.hooks.Adopt(m.table)
	m.hooks.Event(Note{Kind: "route-repair", Site: m.self, From: m.self, Epoch: m.epoch})
	m.broadcastTable()
	m.beginSettle()
}

// current is the table the site routes by: the repair table, or the
// bootstrap's before the first repair (nil if there is neither).
func (m *Manager) current() *routing.Table {
	if m.table == nil && m.hooks.Current != nil {
		return m.hooks.Current()
	}
	return m.table
}

func (m *Manager) aliveNeighborEdges() []graph.Edge {
	out := make([]graph.Edge, 0, len(m.nbrs))
	for _, e := range m.nbrs {
		if !m.state(e.To).dead {
			out = append(out, e)
		}
	}
	return out
}

// broadcastTable spends one unit of the epoch's flood budget.
func (m *Manager) broadcastTable() {
	if m.sendsLeft <= 0 {
		return
	}
	m.sendsLeft--
	m.floodsSent++
	msg := routing.TableMsg{Epoch: m.epoch, Entries: m.table.Snapshot()}
	for _, e := range m.nbrs {
		if !m.state(e.To).dead {
			m.hooks.Send(e.To, msg)
		}
	}
}

// HandleTable offers an incoming routing table message (a repair flood or a
// join handover) to the repair layer. It reports whether it was consumed:
// epoch-0 messages belong to the §7 bootstrap and are left to routing.Node.
func (m *Manager) HandleTable(from graph.NodeID, msg routing.TableMsg) bool {
	if msg.Epoch == 0 {
		return false
	}
	if !m.started || msg.Epoch != m.epoch {
		// Stale (or ahead of a notice still in flight): mixing routes
		// across membership views is exactly what epochs exist to prevent.
		m.staleTables++
		return true
	}
	delay, ok := m.linkDelay[from]
	if !ok {
		return true // not a direct neighbor; cannot weigh the merge
	}
	if m.table == nil {
		m.table = routing.NewTable(m.self, m.aliveNeighborEdges())
	}
	if m.table.Merge(from, delay, msg.Entries) {
		m.hooks.Adopt(m.table)
		m.broadcastTable()
		m.beginSettle()
	}
	return true
}

// ---------------------------------------------------------------------------
// Repair settling

// Repairing reports whether a route repair is still settling. Initiators
// defer starting distributed enrollments while true: enrolling against a
// half-repaired table wastes a transaction on routes that are about to
// change.
func (m *Manager) Repairing() bool { return m.repairing }

// WhenSettled runs fn now if no repair is settling, or once the current
// repair settles.
func (m *Manager) WhenSettled(fn func()) {
	if !m.repairing {
		fn()
		return
	}
	m.onSettled = append(m.onSettled, fn)
}

// beginSettle (re)arms the settle timer: the repair is considered settled,
// and deferred enrollments resume, after one heartbeat period without table
// or view changes.
func (m *Manager) beginSettle() {
	m.repairing = true
	if m.settle != nil {
		m.settle()
	}
	m.settle = m.hooks.After(m.cfg.HeartbeatEvery, m.settled)
}

func (m *Manager) settled() {
	m.settle = nil
	m.repairing = false
	m.hooks.Event(Note{Kind: "repair-settled", Site: m.self, From: m.self, Epoch: m.epoch})
	pending := m.onSettled
	m.onSettled = nil
	for _, fn := range pending {
		fn()
	}
}

// ---------------------------------------------------------------------------
// Join handshake

// StartJoin begins the joiner's handshake: ask every topology neighbor for
// admission, retrying each heartbeat period until an ack arrives or the
// retry budget runs out. The site has no table until the first ack.
func (m *Manager) StartJoin() {
	if m.started || m.joining {
		return
	}
	m.joining = true
	m.startAt = m.hooks.Now()
	m.joinTry()
}

// Joining reports whether the handshake is still in flight.
func (m *Manager) Joining() bool { return m.joining }

func (m *Manager) joinTry() {
	if !m.joining {
		return
	}
	if m.joinTries >= joinRetries {
		m.joining = false
		m.hooks.Event(Note{Kind: "join-failed", Site: m.self, From: m.self})
		return
	}
	m.joinTries++
	req := JoinReq{Inc: m.state(m.self).inc}
	for _, e := range m.nbrs {
		m.hooks.Send(e.To, req)
	}
	m.hooks.After(m.cfg.HeartbeatEvery, m.joinTry)
}

// HandleJoinReq admits a joining neighbor (at an established site): grant
// a fresh incarnation — strictly above anything it was declared dead at,
// and above the stale one a fast-restarted process re-presents — flood
// the admission, repair additively and answer with the full view, then the
// table as a TableMsg at this epoch, so the joiner is routable and routing
// from its first ack even if nobody ever noticed the old process die.
func (m *Manager) HandleJoinReq(from graph.NodeID, req JoinReq) {
	if !m.started {
		return
	}
	m.lastHeard[from] = m.hooks.Now()
	st := m.state(from)
	admitted := false
	if st.dead || req.Inc >= st.inc {
		inc := max(req.Inc, st.inc) + 1
		if m.apply(Entry{Site: from, Inc: inc, Dead: false}) {
			m.hooks.Event(Note{Kind: "member-join", Site: from, From: from, Inc: inc})
			m.flood(AliveNotice{Site: from, Inc: inc})
			admitted = true
		}
	}
	// The ack goes first: the link keeps order, so the joiner has adopted
	// this view, and with it this epoch, when the table arrives. An
	// admission's repair flood carries the table to the joiner with every
	// other neighbor; retries racing the first ack (req.Inc now below the
	// minted incarnation) answer with the current view and table — the
	// handshake is idempotent.
	m.hooks.Send(from, JoinAck{Inc: m.state(from).inc, Epoch: m.epoch, Digest: m.digest()})
	if admitted {
		m.repair(false)
	} else if t := m.current(); t != nil {
		m.hooks.Send(from, routing.TableMsg{Epoch: m.epoch, Entries: t.Snapshot()})
	}
}

// HandleJoinAck completes the joiner's handshake: adopt the acker's view
// (arriving at the same epoch), install the start-condition table, enter
// the epoch's flood and start normal heartbeating. The acker's table
// follows as a TableMsg that HandleTable merges. Later acks from other
// neighbors fold in idempotently.
func (m *Manager) HandleJoinAck(from graph.NodeID, ack JoinAck) {
	if m.joining {
		m.joining = false
		m.started = true
		for _, e := range m.nbrs {
			m.lastHeard[e.To] = m.hooks.Now()
		}
		if ack.Inc > m.state(m.self).inc {
			m.setState(m.self, siteState{inc: ack.Inc})
		}
		m.applyDigest(ack.Digest)
		m.hooks.Event(Note{Kind: "joined", Site: m.self, From: from, Inc: m.state(m.self).inc, Epoch: m.epoch})
		m.repair(true) // builds the start table and floods it
		m.hooks.After(m.cfg.HeartbeatEvery, m.tick)
		return
	}
	if !m.started {
		return
	}
	// A straggler ack after the join completed: treat its digest as gossip.
	if changed, died := m.applyDigest(ack.Digest); changed {
		m.repair(died)
	}
}

// ---------------------------------------------------------------------------
// Observability

// SiteStatus is one row of a membership snapshot.
type SiteStatus struct {
	Site      graph.NodeID `json:"site"`
	Inc       uint64       `json:"inc"`
	Dead      bool         `json:"dead"`
	Neighbor  bool         `json:"neighbor"`
	LastHeard float64      `json:"last_heard,omitempty"` // neighbors only
}

// Snapshot is the manager's observable state (the /membership endpoint).
type Snapshot struct {
	Self          graph.NodeID `json:"self"`
	Inc           uint64       `json:"inc"`
	Epoch         uint64       `json:"epoch"`
	Started       bool         `json:"started"`
	Joining       bool         `json:"joining"`
	Repairing     bool         `json:"repairing"`
	Deaths        int          `json:"deaths"`
	Resurrections int          `json:"resurrections"`
	FloodsSent    int          `json:"floods_sent"`
	StaleTables   int          `json:"stale_tables"`
	Sites         []SiteStatus `json:"sites,omitempty"`
}

// Snapshot captures the manager's state. Like every other method it must
// run in the site's execution context.
func (m *Manager) Snapshot() Snapshot {
	s := Snapshot{
		Self:          m.self,
		Inc:           m.state(m.self).inc,
		Epoch:         m.epoch,
		Started:       m.started,
		Joining:       m.joining,
		Repairing:     m.repairing,
		Deaths:        m.deaths,
		Resurrections: m.resurrections,
		FloodsSent:    m.floodsSent,
		StaleTables:   m.staleTables,
	}
	seen := make(map[graph.NodeID]bool)
	for _, e := range m.digest() {
		if e.Site == m.self {
			continue
		}
		seen[e.Site] = true
		s.Sites = append(s.Sites, SiteStatus{Site: e.Site, Inc: e.Inc, Dead: e.Dead})
	}
	for _, e := range m.nbrs {
		if !seen[e.To] {
			s.Sites = append(s.Sites, SiteStatus{Site: e.To, Neighbor: true, LastHeard: m.lastHeard[e.To]})
		}
	}
	sort.Slice(s.Sites, func(i, j int) bool { return s.Sites[i].Site < s.Sites[j].Site })
	for i := range s.Sites {
		if _, ok := m.linkDelay[s.Sites[i].Site]; ok {
			s.Sites[i].Neighbor = true
			s.Sites[i].LastHeard = m.lastHeard[s.Sites[i].Site]
		}
	}
	return s
}
