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

// Node is the Cluster host configured for deployment: one local site over
// an injected transport — the unit of the multi-process deployment
// (cmd/rtds-node). Every other site is a peer in another host, reachable
// only through the transport, and the job records of remotely-initiated work
// are reconstructed from the protocol messages themselves (see
// adoptRemoteJob).
//
// Lifecycle: NewNode (attach to the transport) → transport start →
// StartBootstrap → WaitReady → Seal → Submit/serve until shutdown. The
// transport is owned by the caller and must outlive the node. Probes (Ready,
// Idle, RoutingState, Membership, ReservationJobIDs) run in the site's
// execution context and report their zero value within probeTimeout when
// the transport is closed or unresponsive.
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

// NewNode builds a one-site host at `self` over the injected transport. The
// transport must not have been started yet: the node attaches its message
// handler here, and transports require every Attach to precede their start.
func NewNode(topo *graph.Graph, cfg Config, tr simnet.Transport, self graph.NodeID) (*Node, error) {
	if err := cfg.validate(topo); err != nil {
		return nil, err
	}
	if cfg.Hier {
		return nil, fmt.Errorf("core: hierarchical routing needs a runtime that can await network-wide " +
			"quiescence: the landmark flood has no local end signal, and a node cannot tell when its peers have drained")
	}
	if int(self) < 0 || int(self) >= topo.Len() {
		return nil, fmt.Errorf("core: node id %d out of range [0,%d)", self, topo.Len())
	}
	c, err := newHost(topo, cfg, tr, []graph.NodeID{self})
	if err != nil {
		return nil, err
	}
	return &Node{c: c, site: c.sites[self]}, nil
}

// Self reports the site this node runs.
func (n *Node) Self() graph.NodeID { return n.site.id }

// StartBootstrap kicks the §7 PCS construction from the site's execution
// context. Call after the transport has been started; peers each run their
// own bootstrap, and the rounds complete once the neighbors' table messages
// have been exchanged.
func (n *Node) StartBootstrap() { n.c.startBootstrap() }

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

// Membership probes the site's membership view. Returns the zero snapshot
// when membership is disabled.
func (n *Node) Membership() membership.Snapshot {
	if snaps := n.c.MembershipSnapshots(); len(snaps) > 0 {
		return snaps[0]
	}
	return membership.Snapshot{}
}

// Ready probes whether the PCS bootstrap has completed at this node.
func (n *Node) Ready() bool { return n.c.ready() }

// RoutingState probes the site's routing-table footprint (bytes and
// entries) — the values behind the node's routing-state gauges. Zero before
// the bootstrap completes.
func (n *Node) RoutingState() (bytes, entries int) { return n.c.RoutingState() }

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
func (n *Node) Seal() { n.c.seal() }

// Submit injects a job arriving at this site `at` virtual time units after
// the epoch (clamped to now when the wall clock has already passed it, like
// the live cluster). The job's origin is always the node's own site: remote
// origins belong to the remote nodes.
func (n *Node) Submit(at float64, g *dag.Graph, relDeadline float64) (*Job, error) {
	return n.c.Submit(at, n.site.id, g, relDeadline)
}

// Idle probes whether the site has released its lock, drained its deferred
// queue and closed its transactions.
func (n *Node) Idle() bool { return n.c.AllIdle() }

// ReservationJobIDs reports the distinct job IDs with committed
// reservations in this site's plan (leak detection for the load harness).
func (n *Node) ReservationJobIDs() []string { return n.c.ReservationJobIDs()[n.site.id] }

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
// message: when the initiator is hosted elsewhere its record lives in
// another process, so the graph, origin and identity carried by the
// protocol itself are all the member knows — and all it needs (deadline accounting happens at the
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
