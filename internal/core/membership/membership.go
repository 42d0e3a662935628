// Package membership turns failure handling from a test-harness oracle into
// a protocol: per-site heartbeat/liveness tracking with suspicion timeouts,
// flooded incarnation-guarded death and resurrection notices, epoch-tagged
// incremental routing re-floods so survivors repair their own tables
// locally, and a JoinReq/JoinAck handshake that lets a site (re)enter a
// running cluster and start serving enrollments.
//
// The package is transport-agnostic: one Manager runs per site inside that
// site's execution context (the DES event loop, the live transport's
// per-site goroutine, or the TCP transport's inbox goroutine), driven
// entirely through the Hooks it is constructed with. It therefore behaves
// identically — and deterministically — on all three transports.
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
// bumps its epoch,
// rebuilds its table from the start condition over its alive neighbors
// (stale routes *through* the corpse cannot survive a reset, which is what
// the central RebuildAlive pass used to guarantee) and re-floods the table
// to its alive neighbors with a bounded per-epoch budget (FloodRounds, the
// same interruption bound as the §7 bootstrap). Merging a same-epoch table
// that changes the local table re-adopts and re-broadcasts, so the flood
// quiesces at a fixed point within the budget.
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
// and answers JoinAck carrying its full view digest. The joiner adopts the
// digest (computing the same epoch as the acker), installs its start-
// condition table and enters the epoch's re-flood, learning routes — and
// becoming routable — within the flood budget. Join repairs are additive:
// survivors keep their tables and merge the joiner's flood instead of
// resetting, since nothing died.
package membership

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
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
	// RepairSettle is the quiet period after the last repair-table change
	// before the repair is considered settled and deferred enrollments
	// resume. Default HeartbeatEvery.
	RepairSettle float64
	// FloodRounds bounds how many times one site re-broadcasts its table
	// per epoch — the repair flood's interruption bound, normally
	// routing.RoundsForRadius(h) like the bootstrap. Default 5.
	FloodRounds int
	// Horizon stops the heartbeat/suspicion timers this long after Start.
	// 0 means forever (wall-clock deployments); discrete-event clusters set
	// it so their event queues drain once the workload is done.
	Horizon float64
	// JoinRetries bounds how many JoinReq rounds a joiner attempts before
	// giving up (one round per HeartbeatEvery). Default 60.
	JoinRetries int
}

// WithDefaults fills unset fields: the one place the default detector
// timing (heartbeat 1, suspicion after 3 heartbeats) is written.
func (c Config) WithDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 1
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatEvery
	}
	if c.RepairSettle <= 0 {
		c.RepairSettle = c.HeartbeatEvery
	}
	if c.FloodRounds <= 0 {
		c.FloodRounds = 5
	}
	if c.JoinRetries <= 0 {
		c.JoinRetries = 60
	}
	return c
}

// Validate rejects nonsensical parameter combinations.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.HeartbeatEvery < 0 || c.SuspectAfter < 0 || c.RepairSettle < 0 || c.Horizon < 0 {
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
// route epoch, its full non-default view digest — from which the joiner
// reconstructs the same view (and therefore the same epoch) — and the head
// of a snapshot of the acker's routing table, so the joiner can route from
// its very first ack instead of waiting for the re-flood to reach it. A
// snapshot larger than MaxAckRoutes is split: the ack carries the first
// chunk and TableChunks records how many TableChunk messages follow, so one
// admission on a wide network never serializes an O(n) table into a single
// unbounded frame.
type JoinAck struct {
	Inc         uint64
	Epoch       uint64
	Digest      []Entry
	Table       []routing.WireRoute
	TableChunks int // TableChunk messages following this ack (0 = none)
}

// Kind implements simnet.Payload.
func (JoinAck) Kind() string { return "member.join-ack" }

// SizeBytes implements simnet.Payload.
func (a JoinAck) SizeBytes() int { return msgHeader + 20 + 10*len(a.Digest) + 16*len(a.Table) }

// MaxAckRoutes caps the table snapshot carried inline by one JoinAck (and
// one TableChunk): a 512-route chunk stays around 8 KiB on the wire, far
// under the codec's frame cap, whatever the network size.
const MaxAckRoutes = 512

// TableChunk is one continuation frame of a chunked JoinAck table snapshot:
// chunk Seq of Total (1-based; chunk 0 travels inline in the ack itself),
// valid at the carried epoch. Receivers merge each chunk like a same-epoch
// repair flood, so loss of a chunk degrades to the re-flood path instead of
// corrupting the table.
type TableChunk struct {
	Epoch   uint64
	Seq     int
	Total   int
	Entries []routing.WireRoute
}

// Kind implements simnet.Payload.
func (TableChunk) Kind() string { return "member.chunk" }

// SizeBytes implements simnet.Payload.
func (c TableChunk) SizeBytes() int { return msgHeader + 16 + 16*len(c.Entries) }

// RegionDigest is a landmark's liveness summary of its own region, routed
// to the adjacent regions' landmarks under hierarchical routing: membership
// gossip is region-scoped there, and the landmark digest is the only
// cross-region liveness channel. Observational — it never feeds routing.
type RegionDigest struct {
	Region int
	Digest []Entry
}

// Kind implements simnet.Payload.
func (RegionDigest) Kind() string { return "member.region" }

// SizeBytes implements simnet.Payload.
func (d RegionDigest) SizeBytes() int { return msgHeader + 4 + 10*len(d.Digest) }
