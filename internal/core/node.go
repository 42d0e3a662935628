package core

//lint:file-allow wallclock -- a Node is the live multi-process deployment unit: readiness polling, control deadlines and graceful shutdown are wall-clock by nature and never feed the DES

import (
	"fmt"
	"time"

	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// Node is one RTDS site running alone in its own process over an injected
// transport — the unit of the multi-process deployment (cmd/rtds-node). The
// in-process Cluster owns every site of the topology and shares job records
// between them through memory; a Node owns exactly one site, every other
// site is a peer reachable only through the transport, and the job records
// of remotely-initiated work are reconstructed from the protocol messages
// themselves (see adoptRemoteJob).
//
// Lifecycle: NewNode (attach to the transport) → transport start →
// StartBootstrap → WaitReady → Seal → Submit/serve until shutdown. The
// transport is owned by the caller and must outlive the node.
//
// Job records (local submissions and adopted remote shares) are retained
// for the node's lifetime: summaries, the /jobs control endpoint and the
// load harness's leak checks all read the full history. A node is
// therefore sized for bounded load campaigns, not unbounded daemon
// uptime; decided-job eviction is deliberate future work.
type Node struct {
	c    *Cluster
	site *Site
}

// NewNode builds a single-site cluster at `self` over the injected
// transport. The transport must not have been started yet: the node attaches
// its message handler here, and transports require every Attach to precede
// their start.
func NewNode(topo *graph.Graph, cfg Config, tr simnet.Transport, self graph.NodeID) (*Node, error) {
	if err := cfg.validate(topo.Len()); err != nil {
		return nil, err
	}
	if cfg.Hier {
		// The hierarchical bootstrap is finalized cluster-wide after the
		// event queue drains; a single-site node has no such barrier.
		return nil, fmt.Errorf("core: hierarchical routing requires the in-process cluster")
	}
	if !topo.Connected() {
		return nil, fmt.Errorf("core: topology is not connected")
	}
	if int(self) < 0 || int(self) >= topo.Len() {
		return nil, fmt.Errorf("core: node id %d out of range [0,%d)", self, topo.Len())
	}
	c := &Cluster{
		cfg:      cfg,
		mcfg:     cfg.membershipConfig(),
		topo:     topo,
		tr:       tr,
		jobIndex: make(map[string]*Job),
		nodeMode: true,
	}
	c.sites = make([]*Site, topo.Len())
	s := newSite(self, c)
	c.sites[self] = s
	tr.Attach(self, s.handle)
	return &Node{c: c, site: s}, nil
}

// Self reports the site this node runs.
func (n *Node) Self() graph.NodeID { return n.site.id }

// StartBootstrap kicks the §7 PCS construction from the site's execution
// context. Call after the transport has been started; peers each run their
// own bootstrap, and the rounds complete once the neighbors' table messages
// have been exchanged.
func (n *Node) StartBootstrap() {
	n.c.tr.After(n.site.id, 0, func() { n.site.rnode.Start() })
}

// StartJoin enters a RUNNING cluster instead of bootstrapping with it: the
// membership layer's JoinReq/JoinAck handshake admits this site at a fresh
// incarnation, installs its start-condition table and re-floods routes, so
// a replacement process for a crashed site becomes schedulable without
// restarting the cluster. Requires membership to be enabled in the config.
// WaitReady reports success exactly as for the bootstrap path.
func (n *Node) StartJoin() error {
	if n.site.member == nil {
		return fmt.Errorf("core: join requires Config.Membership.Enabled")
	}
	n.c.tr.After(n.site.id, 0, n.site.member.StartJoin)
	return nil
}

// Membership probes the site's membership view through its execution
// context. Returns the zero snapshot when membership is disabled or the
// transport is closed.
func (n *Node) Membership() membership.Snapshot {
	s := n.site
	if s.member == nil {
		return membership.Snapshot{}
	}
	done := make(chan membership.Snapshot, 1)
	n.c.tr.After(s.id, 0, func() { done <- s.member.Snapshot() })
	select {
	case v := <-done:
		return v
	case <-time.After(probeTimeout):
		return membership.Snapshot{}
	}
}

// probeTimeout bounds every execution-context probe: on a closed
// transport the probe callback is silently dropped (there is no execution
// context left to run it), so an unbounded receive would hang forever.
const probeTimeout = 5 * time.Second

// Ready probes (through the site's execution context, so without racing the
// message handlers) whether the PCS bootstrap has completed at this node.
// Reports false when the transport is closed or unresponsive.
func (n *Node) Ready() bool {
	done := make(chan bool, 1)
	n.c.tr.After(n.site.id, 0, func() { done <- n.site.table != nil })
	select {
	case v := <-done:
		return v
	case <-time.After(probeTimeout):
		return false
	}
}

// RoutingState probes the site's routing-table footprint (bytes and
// entries) through its execution context — the values behind the node's
// routing-state gauges. Zero before the bootstrap completes or when the
// transport is closed.
func (n *Node) RoutingState() (bytes, entries int) {
	done := make(chan [2]int, 1)
	s := n.site
	n.c.tr.After(s.id, 0, func() {
		if s.table == nil {
			done <- [2]int{}
			return
		}
		done <- [2]int{s.table.StateBytes(), s.table.StateEntries()}
	})
	select {
	case v := <-done:
		return v[0], v[1]
	case <-time.After(probeTimeout):
		return 0, 0
	}
}

// WaitReady polls Ready until the bootstrap completes or the timeout
// elapses, reporting success.
func (n *Node) WaitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.Ready() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n.Ready()
}

// Seal marks the end of the bootstrap phase: the epoch is fixed, the
// bootstrap communication cost is recorded, the per-job counters are
// zeroed, the configured fault plan is armed and the membership layer
// starts heartbeating. Call once, after WaitReady — on the join path the
// membership manager is already running and is left alone.
func (n *Node) Seal() {
	c := n.c
	c.epoch = c.tr.Now()
	c.bootstrapMessages = c.tr.Stats().Messages()
	c.bootstrapBytes = c.tr.Stats().Bytes()
	c.tr.Stats().Reset()
	c.armFaults()
	c.armMembership()
}

// Submit injects a job arriving at this site `at` virtual time units after
// the epoch (clamped to now when the wall clock has already passed it, like
// the live cluster). The job's origin is always the node's own site: remote
// origins belong to the remote nodes.
func (n *Node) Submit(at float64, g *dag.Graph, relDeadline float64) (*Job, error) {
	if at < 0 {
		return nil, fmt.Errorf("core: negative submission time %v", at)
	}
	if relDeadline <= 0 {
		return nil, fmt.Errorf("core: non-positive relative deadline %v", relDeadline)
	}
	c := n.c
	c.mu.Lock()
	c.jobSeq++
	arrival := c.epoch + at
	if now := c.tr.Now(); arrival < now {
		arrival = now
	}
	job := &Job{
		ID:          fmt.Sprintf("j%d@%d", c.jobSeq, n.site.id),
		Graph:       g,
		Origin:      n.site.id,
		Arrival:     arrival,
		AbsDeadline: arrival + relDeadline,
		remaining:   make(map[dag.TaskID]bool, g.Len()),
	}
	for _, id := range g.TaskIDs() {
		job.remaining[id] = true
	}
	c.jobs = append(c.jobs, job)
	c.jobIndex[job.ID] = job
	c.mu.Unlock()
	delay := arrival - c.tr.Now()
	if delay < 0 {
		delay = 0
	}
	c.tr.After(n.site.id, delay, func() { n.site.jobArrives(job) })
	return job, nil
}

// Idle probes whether the site has released its lock, drained its deferred
// queue and closed its transactions. Routed through the site's execution
// context like the live cluster's probe; reports false when the transport
// is closed or unresponsive.
func (n *Node) Idle() bool {
	done := make(chan bool, 1)
	s := n.site
	n.c.tr.After(s.id, 0, func() {
		done <- !s.locked() && len(s.deferred) == 0 && len(s.txns) == 0
	})
	select {
	case v := <-done:
		return v
	case <-time.After(probeTimeout):
		return false
	}
}

// ReservationJobIDs reports the distinct job IDs with committed
// reservations in this site's plan (leak detection for the load harness).
// Returns nil when the transport is closed or unresponsive.
func (n *Node) ReservationJobIDs() []string {
	done := make(chan []string, 1)
	s := n.site
	n.c.tr.After(s.id, 0, func() {
		seen := make(map[string]bool)
		var jobs []string
		for _, r := range s.plan.Reservations() {
			if !seen[r.Job] {
				seen[r.Job] = true
				jobs = append(jobs, r.Job)
			}
		}
		done <- jobs
	})
	select {
	case v := <-done:
		return v
	case <-time.After(probeTimeout):
		return nil
	}
}

// Jobs lists the locally-submitted job records in submission order.
func (n *Node) Jobs() []*Job { return n.c.Jobs() }

// JobStatuses snapshots the locally-submitted jobs' decision state under
// the cluster lock (safe while the protocol is still running).
func (n *Node) JobStatuses() []JobStatus { return n.c.JobStatuses() }

// DecidedSince reads this node's decision journal from a cursor: the
// statuses of up to limit (0 = all) jobs decided after the first `cursor`
// decisions, in decision order, the cursor to pass next time, and a channel
// closed at the next decision, for a caller that wants to wait for one. A
// cursor outside the journal reads from the start. A reader that keeps its
// cursor does work proportional to the new decisions, not to the history
// (which JobStatuses copies whole).
func (n *Node) DecidedSince(cursor, limit int) (tail []JobStatus, next int, wake <-chan struct{}) {
	return n.c.decidedSince(cursor, limit)
}

// JobCount reports how many jobs were submitted at this node.
func (n *Node) JobCount() int {
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	return len(n.c.jobs)
}

// Summarize aggregates the locally-submitted jobs' outcomes. Message
// counters are this node's share of the cluster traffic.
func (n *Node) Summarize() Summary { return n.c.Summarize() }

// Stats exposes the post-Seal communication counters of this node.
func (n *Node) Stats() *simnet.Stats { return n.c.Stats() }

// BootstrapCost reports this node's share of the PCS construction traffic.
func (n *Node) BootstrapCost() (messages, bytes int64) { return n.c.BootstrapCost() }

// Violations lists causality violations detected at this node.
func (n *Node) Violations() []string { return n.c.Violations() }

// FaultDisruptions reports fault-attributed anomalies observed at this node.
func (n *Node) FaultDisruptions() int { return n.c.FaultDisruptions() }

// adoptRemoteJob reconstructs a member-side job record from a commit
// message: in node mode the initiator's record lives in another process, so
// the graph, origin and identity carried by the protocol itself are all the
// member knows — and all it needs (deadline accounting happens at the
// origin). Idempotent: retransmitted commits reuse the first record.
func (c *Cluster) adoptRemoteJob(id string, g *dag.Graph, origin graph.NodeID) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.jobIndex[id]; j != nil {
		return j
	}
	j := &Job{ID: id, Graph: g, Origin: origin}
	// Deliberately not appended to c.jobs: Summarize counts locally
	// submitted jobs only, and a remote share is not a local submission.
	c.jobIndex[id] = j
	return j
}
