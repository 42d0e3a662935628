package core

import (
	"fmt"
	"math"

	"repro/internal/core/membership"
	"repro/internal/core/policy"
	"repro/internal/core/txn"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/schedule"
	"repro/internal/simnet"
)

const noLock = graph.NodeID(-1)

// Site is one network node running the RTDS state machine. A site's methods
// are only invoked from its transport execution context (the DES event loop
// or the site's goroutine on the live transport), so no internal locking is
// needed.
//
// The site is the protocol's I/O half: it owns the transport, the routing
// table, the scheduling plan and the member-side lock. The initiator-side
// phase progression of each distributed job lives in the txn package
// (enroll → validate → commit as guarded transitions), and the decision
// points — enrollment fan-out, local acceptance, laxity dispatching, the
// mapper heuristic — are delegated to the policy layer resolved at
// construction.
type Site struct {
	id      graph.NodeID
	cluster *Cluster
	plan    schedule.Plan
	power   float64

	// Policy layer (see internal/core/policy); resolved once from the
	// cluster config, defaults replay the paper's hard-wired behavior.
	spherePol   policy.Sphere
	acceptPol   policy.Acceptance
	dispatchPol policy.Dispatch
	mapperPol   policy.Mapper

	// Membership layer: heartbeats, suspicion, epoch-tagged route repair
	// and the join handshake. Nil when the cluster runs the faultless
	// paper model (membership disabled). On hierarchical clusters the
	// manager is scoped to the region: it heartbeats intra-region neighbors
	// only and repairs the intra-region half of the table.
	member *membership.Manager
	// Cross-region liveness, landmarks only: the latest digest received
	// from each adjacent region's landmark, and the last digest this
	// landmark shared (so repeats are suppressed).
	remoteRegions    map[int][]membership.Entry
	lastRegionDigest []membership.Entry

	// PCS bootstrap (§7). Exactly one of rnode (flat clusters) and boot
	// (hierarchical clusters) is non-nil; table is whichever router the
	// bootstrap produced — the flat *routing.Table, or the two-level
	// *hier.Table also held in hierTable for the hierarchy-specific calls
	// (escalation landmarks, intra-table repair).
	rnode      *routing.Node
	boot       *hier.Bootstrap
	table      routing.Router
	hierTable  *hier.Table
	pcs        []graph.NodeID // sphere members, self excluded
	sphereDiam float64        // max known delay to a sphere member
	// enrollSet / enrollDiam cache the sphere policy's fan-out choice and
	// its delay diameter. The sphere and its distances are immutable
	// between table adoptions, so paying the policy's selection (a sort,
	// for KRedundant) once per adoptTable instead of once per enrollment
	// keeps startTxn off the protocol's hottest path.
	enrollSet  []graph.NodeID
	enrollDiam float64
	// distVec is the site's distance vector, precomputed once when the
	// (immutable after bootstrap) table is final. It is shared by reference
	// in every EnrollAck this site sends; receivers treat Dists as
	// read-only, so rebuilding/sorting it per enrollment would only burn
	// the protocol's hottest path.
	distVec []DistEntry

	// Lock (§8): while locked the site defers all other scheduling activity.
	lockedBy graph.NodeID
	lockJob  string
	// deferred holds the work that arrived while locked, as values; spare is
	// the drained backing array of the previous replay, so steady-state
	// unlocks swap two arrays and allocate nothing (see unlock).
	deferred []deferredWork
	spare    []deferredWork
	// lockLease is the member-side backstop on faulty clusters: if the
	// initiator goes silent (crash, lost unlock) the lease releases the
	// lock so the site is never wedged forever. Nil when not armed.
	lockLease simnet.CancelFunc

	// Member-side validation state: job -> admitted ticket per logical
	// processor (nil where the proc was not endorsable). reqScratch is
	// endorsable's request buffer: Admit copies what it keeps.
	memberTickets map[string][]*schedule.Ticket
	reqScratch    []schedule.Request

	// Initiator-side transactions (the txn state machines plus their job
	// records).
	txns map[string]*activeTxn

	// Initiator-side abort retransmission state (faulty clusters only):
	// job -> members whose abort unlock has not been acknowledged yet.
	aborts map[string]*txn.AbortRetry

	// Execution state for jobs with tasks on this site.
	exec map[string]*execJob
}

// activeTxn pairs one txn state machine with the job record it decides: the
// machine tracks identifiers and phase bookkeeping only, the protocol needs
// the record for deadlines, graphs and the final decision.
type activeTxn struct {
	*txn.Txn
	job *Job
}

func newSite(id graph.NodeID, c *Cluster) *Site {
	var plan schedule.Plan
	if c.cfg.Preemptive {
		plan = schedule.NewPreemptive()
	} else {
		plan = schedule.NewNonPreemptive()
	}
	s := &Site{
		id:            id,
		cluster:       c,
		plan:          plan,
		power:         c.cfg.power(int(id)),
		spherePol:     c.cfg.spherePolicy(),
		acceptPol:     c.cfg.acceptancePolicy(),
		dispatchPol:   c.cfg.dispatchPolicy(),
		mapperPol:     c.cfg.mapperPolicy(),
		lockedBy:      noLock,
		memberTickets: make(map[string][]*schedule.Ticket),
		txns:          make(map[string]*activeTxn),
		aborts:        make(map[string]*txn.AbortRetry),
		exec:          make(map[string]*execJob),
	}
	directSend := func(to graph.NodeID, p simnet.Payload) {
		if err := c.tr.Send(id, to, p); err != nil {
			panic(err)
		}
	}
	if c.lay != nil {
		s.boot = hier.NewBootstrap(id, c.topo.Neighbors(id), c.lay, directSend)
	} else {
		rounds := routing.RoundsForRadius(c.cfg.Radius)
		s.rnode = routing.NewNode(id, c.topo.Neighbors(id), rounds, directSend, s.adoptTable)
	}
	if c.mcfg.Enabled {
		// Region-scoped membership on hierarchical clusters: heartbeats,
		// suspicion and repair floods stay inside the region (the landmark
		// summarizes the region's liveness to its peers, see
		// shareRegionDigest); repairs rebuild the intra-region table only,
		// the landmark vector survives untouched.
		nbrs := c.topo.Neighbors(id)
		adopt := s.adoptTable
		current := func() *routing.Table {
			if t, ok := s.table.(*routing.Table); ok {
				return t
			}
			return nil
		}
		if c.lay != nil {
			var intra []graph.Edge
			for _, e := range nbrs {
				if c.lay.SameRegion(id, e.To) {
					intra = append(intra, e)
				}
			}
			nbrs = intra
			adopt = s.adoptIntra
			current = func() *routing.Table {
				if s.hierTable == nil {
					return nil
				}
				return s.hierTable.Intra()
			}
		}
		s.member = membership.New(id, nbrs, c.mcfg, membership.Hooks{
			Now:     s.now,
			After:   s.after,
			Send:    directSend,
			Adopt:   adopt,
			Current: current,
			Event:   func(kind, detail string) { c.event(s.id, "", EventKind(kind), detail) },
		})
	}
	return s
}

// adoptTable installs a flat routing table — the PCS bootstrap result, or a
// repaired table after a site death.
func (s *Site) adoptTable(t *routing.Table) { s.adoptRouter(t) }

// adoptHier installs the finished two-level table of the hierarchical
// bootstrap.
func (s *Site) adoptHier(t *hier.Table) {
	s.hierTable = t
	s.adoptRouter(t)
}

// adoptIntra installs a repaired intra-region table into the hierarchical
// table (membership route repair under hierarchy): the landmark vector is
// kept — nothing outside the region changed — and the derived state is
// rebuilt from the composite router. Landmarks then share the region's
// liveness digest with their adjacent peers.
func (s *Site) adoptIntra(t *routing.Table) {
	s.hierTable.SetIntra(t)
	s.adoptRouter(s.hierTable)
	s.shareRegionDigest()
}

// adoptRouter rebuilds the routing-derived state: sphere membership, sphere
// delay diameter and the distance vector. Fresh slices are allocated every
// time because the previous ones may still be referenced by in-flight
// enrollAcks (receivers treat Dists as read-only).
func (s *Site) adoptRouter(t routing.Router) {
	s.table = t
	radius := s.cluster.cfg.Radius
	s.pcs = nil
	for _, m := range t.Sphere(radius) {
		if m != s.id {
			s.pcs = append(s.pcs, m)
		}
	}
	s.sphereDiam = t.SphereDelayDiameter(radius)
	s.distVec = nil
	for _, dest := range t.Destinations() {
		if dest != s.id {
			s.distVec = append(s.distVec, DistEntry{Dest: dest, Dist: t.Dist(dest)})
		}
	}
	// Resolve the sphere policy's enrollment fan-out once per table. The
	// enrollment round trip is bounded by the precomputed sphere diameter
	// when the whole sphere is enrolled (the paper's case), by the chosen
	// set's own diameter when the policy restricted the fan-out.
	s.enrollSet = s.spherePol.EnrollSet(s.pcs, t.Dist)
	s.enrollDiam = s.sphereDiam
	if len(s.enrollSet) != len(s.pcs) {
		s.enrollDiam = 0
		for _, m := range s.enrollSet {
			if d := t.Dist(m); !math.IsInf(d, 1) && d > s.enrollDiam {
				s.enrollDiam = d
			}
		}
	}
}

// finishBootstrap closes this site's routing bootstrap once the network has
// drained (see Cluster.finishBootstrap): the two-level table is assembled
// here; a flat table was adopted when the site's last round completed.
func (s *Site) finishBootstrap() error {
	if s.boot != nil {
		if !s.boot.Done() {
			return fmt.Errorf("core: site %d never finished hierarchical bootstrap (missing regions %v)",
				s.id, s.boot.MissingRegions())
		}
		s.adoptHier(s.boot.Finish())
	}
	if s.table == nil {
		return fmt.Errorf("core: site %d never finished PCS construction", s.id)
	}
	return nil
}

// routingState reports the routing-table footprint as {bytes, entries}.
func (s *Site) routingState() [2]int {
	if s.table == nil {
		return [2]int{}
	}
	return [2]int{s.table.StateBytes(), s.table.StateEntries()}
}

// idle reports whether the site has released its lock, drained its deferred
// queue and closed its transactions.
func (s *Site) idle() bool { return !s.locked() && len(s.deferred) == 0 && len(s.txns) == 0 }

// handle is the single transport entry point. Routing-table messages are
// offered to the membership layer first: epoch-tagged repair floods belong
// to it, the epoch-0 bootstrap to the §7 state machine. Membership beacons
// and notices travel unwrapped (they are strictly neighbor-to-neighbor,
// like bootstrap tables).
func (s *Site) handle(from graph.NodeID, p simnet.Payload) {
	switch m := p.(type) {
	case routing.TableMsg:
		if s.member != nil && s.member.HandleTable(from, m) {
			return
		}
		if s.boot != nil {
			s.boot.HandleTable(from, m)
			return
		}
		s.rnode.HandleTable(from, m)
	case hier.LandmarkAd:
		if s.boot == nil {
			panic(fmt.Sprintf("core: site %d got landmark ad on a flat cluster", s.id))
		}
		s.boot.HandleAd(from, m)
	case membership.Heartbeat:
		if s.member != nil {
			s.member.HandleHeartbeat(from, m)
		}
	case membership.DeadNotice:
		if s.member != nil {
			s.member.HandleDead(from, m)
		}
	case membership.AliveNotice:
		if s.member != nil {
			s.member.HandleAlive(from, m)
		}
	case membership.JoinReq:
		if s.member != nil {
			s.member.HandleJoinReq(from, m)
		}
	case membership.JoinAck:
		if s.member != nil {
			s.member.HandleJoinAck(from, m)
		}
	case membership.TableChunk:
		if s.member != nil {
			s.member.HandleTableChunk(from, m)
		}
	case Routed:
		if m.Dest != s.id {
			s.forward(m)
			return
		}
		s.dispatch(m.Src, m.Inner)
	default:
		panic(fmt.Sprintf("core: site %d got unwrapped payload %q", s.id, p.Kind()))
	}
}

func (s *Site) dispatch(src graph.NodeID, p simnet.Payload) {
	switch m := p.(type) {
	case EnrollReq:
		s.onEnroll(src, m)
	case EnrollAck:
		s.onEnrollAck(m)
	case ValidateReq:
		s.onValidate(m)
	case ValidateAck:
		s.onValidateAck(m)
	case CommitMsg:
		s.onCommit(m)
	case CommitAck:
		s.onCommitAck(m)
	case UnlockMsg:
		s.onUnlock(m)
	case UnlockAck:
		s.onUnlockAck(m)
	case ResultMsg:
		s.onResult(m)
	case DoneMsg:
		s.onDone(m)
	case membership.RegionDigest:
		s.onRegionDigest(m)
	default:
		panic(fmt.Sprintf("core: site %d got unknown payload %q", s.id, p.Kind()))
	}
}

// shareRegionDigest forwards this landmark's membership digest to the
// adjacent regions' landmarks — the cross-region liveness summary of the
// hierarchy. Non-landmarks and unchanged digests send nothing, so steady
// state is silent and region-local churn costs one routed message per
// adjacent region.
func (s *Site) shareRegionDigest() {
	if s.hierTable == nil || s.member == nil {
		return
	}
	lay := s.hierTable.Layout()
	if lay.Landmarks[lay.Region(s.id)] != s.id {
		return
	}
	d := s.member.Digest()
	if len(d) == len(s.lastRegionDigest) {
		same := true
		for i := range d {
			if d[i] != s.lastRegionDigest[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	s.lastRegionDigest = d
	msg := membership.RegionDigest{Region: lay.Region(s.id), Digest: d}
	for _, lm := range s.hierTable.EscalationLandmarks() {
		s.sendTo(lm, msg)
	}
}

// onRegionDigest records an adjacent region's liveness summary at this
// landmark. The digest is observational — it feeds the membership snapshot
// and the experiments' liveness accounting, not the routing layer: the
// landmark vector is a bootstrap artifact and intra-region repair is the
// region's own business.
func (s *Site) onRegionDigest(m membership.RegionDigest) {
	if s.remoteRegions == nil {
		s.remoteRegions = make(map[int][]membership.Entry)
	}
	s.remoteRegions[m.Region] = m.Digest
}

// sendTo routes a payload toward dest along next hops.
func (s *Site) sendTo(dest graph.NodeID, p simnet.Payload) {
	if dest == s.id {
		s.dispatch(s.id, p)
		return
	}
	s.forward(NewRouted(s.id, dest, s.cluster.routedTTL(), p))
}

// sendAll fans one message out to every destination. The (immutable)
// message is boxed once, by the call; each destination gets its own routed
// header pointing at the same value.
func (s *Site) sendAll(dests []graph.NodeID, p simnet.Payload) {
	for _, m := range dests {
		s.sendTo(m, p)
	}
}

// forward relays a routed payload one hop. An exhausted TTL or a missing
// route drops the message: on a faultless cluster that is a protocol bug and
// is reported as a violation, on a faulty one it is expected degradation
// (routes to dead sites are pruned) and only counted. The phase timeouts
// and lock leases guarantee the protocol recovers from the loss either way.
// The message is this site's until it is sent on (see Routed): TTL drops in
// the header and the same handle goes out, so a relayed hop allocates nothing.
//
//lint:hotpath -- one call per link traversal of every routed protocol message
func (s *Site) forward(m Routed) {
	if m.TTL <= 0 {
		//lint:allow hotalloc -- drop path: a protocol bug on a faultless cluster, counted degradation on a faulty one
		s.cluster.protocolDrop(s.id, fmt.Sprintf(
			"TTL exhausted forwarding %q from %d to %d at %d", m.Inner.Kind(), m.Src, m.Dest, s.id))
		return
	}
	m.TTL--
	nh, ok := s.table.NextHop(m.Dest)
	if !ok {
		//lint:allow hotalloc -- drop path: a protocol bug on a faultless cluster, counted degradation on a faulty one
		s.cluster.protocolDrop(s.id, fmt.Sprintf(
			"site %d has no route to %d for %q", s.id, m.Dest, m.Inner.Kind()))
		return
	}
	if err := s.cluster.tr.Send(s.id, nh, m); err != nil {
		panic(err)
	}
}

func (s *Site) now() float64 { return s.cluster.tr.NowOf(s.id) }

// after schedules fn in this site's execution context after a virtual-time
// delay — the clock every phase timer, lease and execution timer runs on.
func (s *Site) after(d float64, fn func()) simnet.CancelFunc {
	return s.cluster.tr.After(s.id, d, fn)
}

// ---------------------------------------------------------------------------
// Locking (§8)

func (s *Site) locked() bool { return s.lockedBy != noLock }

func (s *Site) lock(owner graph.NodeID, job string) {
	if s.locked() {
		panic(fmt.Sprintf("core: site %d double lock (%d then %d)", s.id, s.lockedBy, owner))
	}
	s.lockedBy = owner
	s.lockJob = job
}

// deferredWork is one piece of work a locked site put off: a job arrival
// (job non-nil) or an enrollment request from src. Only jobArrives and
// onEnroll defer, each re-queueing its own argument.
type deferredWork struct {
	job *Job
	src graph.NodeID
	req EnrollReq
}

// unlock releases the lock and replays work deferred while locked, in
// arrival order. A single pass over a snapshot avoids livelock when replayed
// items defer themselves again: an item that finds the site locked again
// joins the new queue, behind whatever the items replayed before it deferred
// (a synchronous send to self, say) and ahead of the items after it. A
// replayed item may re-enter unlock (a transaction that rejects
// synchronously): the inner call snapshots and replays the new queue, then
// the outer pass resumes. Each level owns its snapshot's backing array until
// it is drained and only then offers it as the spare, so the queue being
// appended to never aliases a snapshot being read; a re-entered unlock finds
// no spare and the next deferral allocates, which is the rare path.
func (s *Site) unlock() {
	if s.lockLease != nil {
		s.lockLease()
		s.lockLease = nil
	}
	s.lockedBy = noLock
	s.lockJob = ""
	pending := s.deferred
	s.deferred, s.spare = s.spare[:0], nil
	for i := range pending {
		w := pending[i]
		pending[i] = deferredWork{} // the spare array must not pin jobs
		if w.job != nil {
			s.jobArrives(w.job)
		} else {
			s.onEnroll(w.src, w.req)
		}
	}
	s.spare = pending[:0]
}

func (s *Site) deferWork(w deferredWork) { s.deferred = append(s.deferred, w) }

// ---------------------------------------------------------------------------
// Job arrival and the local guarantee test (§5)

// jobArrives is the entry point for a job submitted at this site.
func (s *Site) jobArrives(job *Job) {
	if s.locked() {
		if s.cluster.tracing() {
			s.cluster.event(s.id, job.ID, EvDeferred, fmt.Sprintf("locked by %d", s.lockedBy))
		}
		s.deferWork(deferredWork{job: job})
		return
	}
	s.cluster.event(s.id, job.ID, EvArrival, "")
	if tk, ok := s.acceptPol.LocalTest(s.plan, s.now(), job.ID, job.Graph, job.Arrival, job.AbsDeadline, s.power); ok {
		if err := s.plan.Commit(tk); err != nil {
			// The plan refused a ticket admitted an instant ago on an
			// unlocked site. This indicates an inconsistency, but crashing
			// the whole cluster over one job helps nobody: reject the job
			// with a trace and report it as a violation so faultless tests
			// still fail loudly.
			s.cluster.protocolDrop(s.id, fmt.Sprintf(
				"site %d: unlocked local commit of %s failed: %v", s.id, job.ID, err))
			s.cluster.recordDecision(job, Rejected, StageCommit, s.now())
			return
		}
		s.cluster.event(s.id, job.ID, EvLocalOK, "")
		s.cluster.recordDecision(job, AcceptedLocal, "", s.now())
		s.cluster.noteJobProcs(job, 1)
		allLocal := make(map[dag.TaskID]graph.NodeID, job.Graph.Len())
		for _, id := range job.Graph.TaskIDs() {
			allLocal[id] = s.id
		}
		s.beginExecution(job, allLocal, tk)
		return
	}
	if s.cluster.cfg.LocalOnly {
		s.cluster.recordDecision(job, Rejected, StageLocalOnly, s.now())
		return
	}
	if s.member != nil && s.member.Repairing() {
		// A route repair is still settling: enrolling against a
		// half-repaired table would fan out along routes that are about to
		// change. Re-run the arrival once the flood quiesces — by then the
		// sphere may have shrunk (a death) or grown back (a join), and the
		// local test gets a fresh chance too.
		s.cluster.event(s.id, job.ID, EvDeferred, "route repair settling")
		s.member.WhenSettled(func() { s.jobArrives(job) })
		return
	}
	if len(s.pcs) == 0 {
		// A hierarchical site whose region-local sphere is empty (a tiny
		// region) still has the escalation path: the transaction starts
		// with an empty fan-out, its window closes immediately and the
		// underflow escalates to the adjacent regions' landmarks.
		if s.hierTable == nil || len(s.hierTable.EscalationLandmarks()) == 0 {
			s.cluster.recordDecision(job, Rejected, StageNoSphere, s.now())
			return
		}
	}
	s.startTxn(job)
}
