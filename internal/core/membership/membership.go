// Package membership turns failure handling from a test-harness oracle into
// a protocol: per-site heartbeat/liveness tracking with suspicion timeouts,
// flooded incarnation-guarded death and resurrection notices, epoch-tagged
// incremental routing re-floods so survivors repair their own tables
// locally, and a JoinReq/JoinAck handshake that lets a site (re)enter a
// running cluster and start serving enrollments.
//
// The package is transport-agnostic: one Manager runs per site inside that
// site's execution context (the DES event loop or the TCP transport's
// per-site inbox goroutine), driven entirely through the Hooks it is
// constructed with. It therefore behaves identically on both transports,
// and deterministically on the DES.
//
// # The membership view and its epoch
//
// Every site keeps a view: per site, an incarnation number and a dead flag.
// All sites start alive at incarnation 0 (the PCS bootstrap requires a
// healthy network, §7). Transitions are guarded by incarnation so the view
// is a state-based CRDT: a death notice applies at an incarnation at least
// as new as the known one, a resurrection only at a strictly newer one, and
// "dead" wins ties. Applying the same notice twice — or learning a state
// through any interleaving of notices, heartbeat digests and join acks —
// converges to the same view.
//
// The route epoch is a deterministic fingerprint of the view (the XOR of
// a 64-bit hash of every non-default entry), so two sites with identical
// views agree on the epoch without any coordination, whatever order they
// learned the events in — and two different views share an epoch only on
// a 64-bit hash collision, not a mere count coincidence. Repair floods tag
// their routing.TableMsg with the sender's epoch; a receiver on a
// different epoch discards the message, which is what keeps routes
// computed under different membership views from mixing (the stale-epoch
// rejection of the routing layer).
//
// # Failure detection and repair
//
// Sites heartbeat their direct topology neighbors every HeartbeatEvery and
// declare a neighbor dead after SuspectAfter of silence. A detected death
// is flooded as an incarnation-tagged notice; each site that applies it
// bumps its epoch, rebuilds its table from the start condition over its
// alive neighbors (stale routes *through* the corpse cannot survive a
// reset) and re-floods the table to its alive neighbors with a bounded
// per-epoch budget of sends, which core passes to New: the flat §7
// bootstrap's round count for the sphere radius (under hierarchical
// routing a region's bootstrap may run more or fewer rounds than that).
// Merging a same-epoch table that changes the local table re-adopts and
// re-broadcasts, so the flood quiesces at a fixed point within the budget.
//
// Heartbeats piggyback a digest of every non-default view entry, so a site
// that missed a flooded notice (message loss, its own partition) still
// converges: digests apply through the same guarded transitions.
//
// # Joining
//
// A joiner (a replacement process for a crashed site, or a site re-entering
// after a partition) sends JoinReq to its topology neighbors. An alive
// neighbor resurrects it at a fresh incarnation, floods the resurrection,
// and answers JoinAck carrying its full view digest, then its routing table
// as a TableMsg at its epoch. The joiner adopts the digest (computing the
// same epoch as the acker), installs its start-condition table, enters the
// epoch's re-flood and merges the acker's table as a same-epoch repair
// flood (links keep order, so the table arrives after the ack). Join
// repairs are additive: survivors keep their tables and merge the joiner's
// flood instead of resetting, since nothing died.
package membership

import (
	"fmt"

	"repro/internal/graph"
)

// Config tunes one site's membership manager. The zero value (Enabled
// false) disables membership entirely — the faultless paper model.
type Config struct {
	// Enabled turns the manager on. Clusters with a crash fault plan enable
	// membership automatically (see core.Config); everything else is opt-in.
	Enabled bool
	// HeartbeatEvery is the heartbeat period in virtual time units.
	// Default 1.
	HeartbeatEvery float64
	// SuspectAfter is how long a neighbor may stay silent before it is
	// declared dead. Must exceed HeartbeatEvery by at least the link delay
	// plus jitter headroom. Default 3·HeartbeatEvery.
	SuspectAfter float64
	// Horizon stops the heartbeat/suspicion timers this long after Start.
	// 0 means forever (wall-clock deployments); discrete-event clusters set
	// it so their event queues drain once the workload is done.
	Horizon float64
}

// joinRetries bounds how many JoinReq rounds a joiner attempts before
// giving up (one round per HeartbeatEvery).
const joinRetries = 60

// WithDefaults fills unset fields: the one place the default detector
// timing (heartbeat 1, suspicion after 3 heartbeats) is written.
func (c Config) WithDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 1
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatEvery
	}
	return c
}

// Validate rejects nonsensical parameter combinations.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.HeartbeatEvery < 0 || c.SuspectAfter < 0 || c.Horizon < 0 {
		return fmt.Errorf("membership: negative timing parameter in %+v", c)
	}
	if c.SuspectAfter > 0 && c.HeartbeatEvery > 0 && c.SuspectAfter <= c.HeartbeatEvery {
		return fmt.Errorf("membership: SuspectAfter %v must exceed HeartbeatEvery %v",
			c.SuspectAfter, c.HeartbeatEvery)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Wire messages. All kinds share the "member." prefix, which the transport
// statistics use to account control-plane traffic separately from the
// per-job protocol cost.

// msgHeader approximates the fixed wire overhead of a membership message.
const msgHeader = 16

// Heartbeat is the periodic liveness beacon a site sends to every direct
// topology neighbor. It carries the sender's incarnation and a digest of
// every non-default membership state the sender knows, so views converge
// even when flooded notices are lost.
type Heartbeat struct {
	Inc    uint64
	Digest []Entry
}

// Kind implements simnet.Payload.
func (Heartbeat) Kind() string { return "member.hb" }

// SizeBytes implements simnet.Payload.
func (h Heartbeat) SizeBytes() int { return msgHeader + 10*len(h.Digest) }

// Entry is one site's state in a digest: its incarnation and liveness.
type Entry struct {
	Site graph.NodeID
	Inc  uint64
	Dead bool
}

// DeadNotice floods a detected death: Site stopped responding at
// incarnation Inc.
type DeadNotice struct {
	Site graph.NodeID
	Inc  uint64
}

// Kind implements simnet.Payload.
func (DeadNotice) Kind() string { return "member.dead" }

// SizeBytes implements simnet.Payload.
func (DeadNotice) SizeBytes() int { return msgHeader + 8 }

// AliveNotice floods a resurrection or admission: Site is alive at
// incarnation Inc (strictly newer than any incarnation it was declared
// dead at).
type AliveNotice struct {
	Site graph.NodeID
	Inc  uint64
}

// Kind implements simnet.Payload.
func (AliveNotice) Kind() string { return "member.alive" }

// SizeBytes implements simnet.Payload.
func (AliveNotice) SizeBytes() int { return msgHeader + 8 }

// JoinReq asks a direct neighbor to admit the sender into the running
// cluster. Inc is the joiner's proposed incarnation; the admitting side
// raises it above any incarnation the site was previously declared dead at.
type JoinReq struct {
	Inc uint64
}

// Kind implements simnet.Payload.
func (JoinReq) Kind() string { return "member.join" }

// SizeBytes implements simnet.Payload.
func (JoinReq) SizeBytes() int { return msgHeader }

// JoinAck admits a joiner: it carries the granted incarnation, the acker's
// route epoch and its full non-default view digest, from which the joiner
// reconstructs the same view and therefore the same epoch. The acker's
// routing table follows on the same link as an ordinary epoch-tagged
// routing.TableMsg, merged like any repair flood.
type JoinAck struct {
	Inc    uint64
	Epoch  uint64
	Digest []Entry
}

// Kind implements simnet.Payload.
func (JoinAck) Kind() string { return "member.join-ack" }

// SizeBytes implements simnet.Payload.
func (a JoinAck) SizeBytes() int { return msgHeader + 16 + 10*len(a.Digest) }
