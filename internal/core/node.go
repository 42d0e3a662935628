package core

//lint:file-allow wallclock -- a Node is the live multi-process deployment unit: readiness polling, control deadlines and graceful shutdown are wall-clock by nature and never feed the DES

import (
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// Node is the Cluster host configured for deployment: one local site over
// an injected transport — the unit of the multi-process deployment
// (cmd/rtds-node). Every other site is a peer in another host, reachable
// only through the transport; the site learns remotely-initiated work from
// the protocol messages, as every site on every runtime does. Under
// Config.Hier the site bootstraps, heartbeats and routes over its
// intra-region links only, and every process derives the same regions from
// the shared topology.
//
// A Node is its Cluster: probes, records and counters are the embedded
// Cluster's (Idle, ReservationJobIDs, MembershipSnapshots, JobStatuses,
// Summarize, ...), each answering for the one local site. Node adds what a
// one-site host with a caller-driven lifecycle needs: NewNode (attach to the
// transport) → transport start → StartBootstrap or StartJoin → WaitReady →
// Seal → Submit/serve until shutdown. The transport is owned by the caller
// and must outlive the node. Probes run in the site's execution context and
// report their zero value within probeTimeout when the transport is closed
// or unresponsive.
//
// A share of a job's execution leaves the site when its last task here
// completes, and a job's origin entry when the job is rejected or Done.
// Its counters are its site's tally, recorded with their facts, so Summarize
// (and /metrics) walks nothing. What the node keeps for its lifetime is the
// records of the jobs submitted to it, the record log (untraced, the
// default: one entry per decision and per anomaly; /jobs reads it by cursor)
// and the plan's reservations, past ones included. A node is therefore sized
// for bounded load campaigns, not unbounded daemon uptime.
type Node struct {
	*Cluster
	site *Site
}

// NewNode builds a one-site host at `self` over the injected transport. The
// transport must not have been started yet: the node attaches its message
// handler here, and transports require every Attach to precede their start.
func NewNode(topo *graph.Graph, cfg Config, tr simnet.Transport, self graph.NodeID) (*Node, error) {
	if err := cfg.validate(topo); err != nil {
		return nil, err
	}
	if int(self) < 0 || int(self) >= topo.Len() {
		return nil, fmt.Errorf("core: node id %d out of range [0,%d)", self, topo.Len())
	}
	c, err := newHost(topo, cfg, tr, []graph.NodeID{self})
	if err != nil {
		return nil, err
	}
	return &Node{Cluster: c, site: c.sites[self]}, nil
}

// Self reports the site this node runs.
func (n *Node) Self() graph.NodeID { return n.site.id }

// StartBootstrap kicks the §7 PCS construction from the site's execution
// context. Call after the transport has been started; peers each run their
// own bootstrap, and the rounds complete once the neighbors' table messages
// have been exchanged.
func (n *Node) StartBootstrap() { n.startBootstrap() }

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
	n.tr.After(n.site.id, 0, n.site.member.StartJoin)
	return nil
}

// WaitReady polls until the site has adopted its routing table (the
// bootstrap's last round, or the join handshake, has completed) or the
// timeout elapses, reporting success.
func (n *Node) WaitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.ready() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n.ready()
}

// Seal marks the end of the bootstrap phase: the epoch is fixed, the
// bootstrap communication cost is recorded, the per-job counters are
// zeroed, the configured fault plan is armed and the membership layer
// starts heartbeating. Call once, after WaitReady — on the join path the
// membership manager is already running and is left alone.
func (n *Node) Seal() { n.seal() }

// Submit injects a job arriving at this site `at` virtual time units after
// the epoch (clamped to now when the wall clock has already passed it, like
// the live cluster). The job's origin is always the node's own site: remote
// origins belong to the remote nodes.
func (n *Node) Submit(at float64, g *dag.Graph, relDeadline float64) (*Job, error) {
	return n.Cluster.Submit(at, n.site.id, g, relDeadline)
}

// DecidedSince reads this node's decisions after a cursor, an opaque log
// position (one outside the log reads from the start: re-reading is
// harmless, skipping is not): up to limit (0 = all) statuses in decision
// order, the cursor to pass next, and a channel closed at the next decision.
// A reader that keeps its cursor pays for what was logged since, not more.
func (n *Node) DecidedSince(cursor, limit int) (tail []JobStatus, next int, wake <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	log := n.log
	if cursor < 0 || cursor > len(log) {
		cursor = 0
	}
	tail = []JobStatus{}
	for next = cursor; next < len(log) && (limit <= 0 || len(tail) < limit); next++ {
		if log[next].Kind == EvDecided {
			tail = append(tail, statusOf(log[next].job))
		}
	}
	if n.decideWake == nil {
		n.decideWake = make(chan struct{})
	}
	return tail, next, n.decideWake
}
