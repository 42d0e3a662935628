package core

import (
	"repro/internal/core/txn"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/simnet"
)

// msgHeader approximates the fixed wire overhead of every protocol message:
// source, destination, job identifier, kind tag.
const msgHeader = 24

// Routed wraps a protocol payload for hop-by-hop forwarding: sites relay it
// along their routing tables' next hops until it reaches Dest. Each link
// traversal is a separate accounted message, which is exactly how the paper
// counts communication ("a limited number of sites and communication
// links").
//
// Routed is a one-word handle to a header allocated once per end-to-end
// message (NewRouted, called by Site.sendTo and the wire decoder): a struct
// of one pointer converts to simnet.Payload without allocating, so a relay
// decrements TTL in place and re-sends the same payload. The zero Routed has
// no header; only NewRouted makes a usable one.
//
// Ownership: a sent payload belongs to whoever receives it, and the sender
// does not touch it after Send. That is what makes the in-place TTL update
// safe on every transport — the DES and Live hand the object itself to the
// one receiver (the event queue and the link FIFO order the hand-off), the
// TCP transport encodes inside Send and the receiver decodes a fresh header.
// A header is never recycled or cleared: observers (the benchmark's trace
// decorator) read Inner after the handler has returned.
type Routed struct{ *RoutedHeader }

// RoutedHeader is the routing envelope a Routed handle points to.
type RoutedHeader struct {
	Src   graph.NodeID
	Dest  graph.NodeID
	TTL   int
	Inner simnet.Payload
}

// NewRouted allocates the header of one end-to-end message.
func NewRouted(src, dest graph.NodeID, ttl int, inner simnet.Payload) Routed {
	return Routed{&RoutedHeader{Src: src, Dest: dest, TTL: ttl, Inner: inner}}
}

// Kind implements simnet.Payload.
func (r Routed) Kind() string { return r.Inner.Kind() }

// SizeBytes implements simnet.Payload: inner payload plus routing header.
func (r Routed) SizeBytes() int { return 8 + r.Inner.SizeBytes() }

// EnrollReq asks a PCS member to join the ACS for a job (§8). Window is the
// initiator's enrollment window; members use it to size the lock lease they
// arm on faulty clusters (the initiator's sphere diameter, which the window
// encodes, bounds every later phase's round trip).
type EnrollReq struct {
	Job       string
	Initiator graph.NodeID
	Window    float64
}

func (EnrollReq) Kind() string     { return "rtds.enroll" }
func (e EnrollReq) SizeBytes() int { return msgHeader + 8 }

// DistEntry is one line of the distance vector an enrollee reports, letting
// the initiator compute the exact ACS delay diameter (DESIGN.md §6.3). It
// aliases the txn package's representation so enrollment reports flow into
// the state machine without conversion.
type DistEntry = txn.DistEntry

// EnrollAck accepts enrollment: the member is now locked for the initiator
// and reports its surplus (§8) plus its distance vector and computing power.
type EnrollAck struct {
	Job     string
	Member  graph.NodeID
	Surplus float64
	Power   float64
	Dists   []DistEntry
}

func (EnrollAck) Kind() string     { return "rtds.enroll-ack" }
func (a EnrollAck) SizeBytes() int { return msgHeader + 16 + 12*len(a.Dists) }

// ValidateReq broadcasts the trial mapping M in the ACS (§10). Every member
// receives all logical processors' task windows and tries to endorse each.
type ValidateReq struct {
	Job       string
	Initiator graph.NodeID
	NumProcs  int
	Windows   [][]mapper.TaskWindow // indexed by logical processor
}

func (ValidateReq) Kind() string { return "rtds.validate" }
func (v ValidateReq) SizeBytes() int {
	n := 0
	for _, w := range v.Windows {
		n += len(w)
	}
	// Per task window: id (4), complexity/release/deadline (24).
	return msgHeader + 4 + 28*n
}

// ValidateAck reports the logical processors the sender could endorse.
type ValidateAck struct {
	Job        string
	Member     graph.NodeID
	Endorsable []int
}

func (ValidateAck) Kind() string     { return "rtds.validate-ack" }
func (a ValidateAck) SizeBytes() int { return msgHeader + 4*len(a.Endorsable) }

// CommitMsg carries the §11 permutation outcome to one ACS member. Proc < 0
// releases the member without work; otherwise the member endorses logical
// processor Proc and receives the task codes, the precedence structure and
// the task→site map it needs to send results during execution.
type CommitMsg struct {
	Job       string
	Initiator graph.NodeID
	Proc      int
	Graph     *dag.Graph                  // task codes + precedence (size accounted below)
	TaskSites map[dag.TaskID]graph.NodeID // where every task of the job runs
	CodeBytes int                         // accounted size of the shipped task codes
}

func (CommitMsg) Kind() string { return "rtds.commit" }
func (c CommitMsg) SizeBytes() int {
	if c.Proc < 0 {
		return msgHeader
	}
	return msgHeader + c.CodeBytes + 8*len(c.TaskSites)
}

// CommitAck confirms (or refuses) the insertion of Ti into the member's
// scheduling plan.
type CommitAck struct {
	Job    string
	Member graph.NodeID
	OK     bool
}

func (CommitAck) Kind() string   { return "rtds.commit-ack" }
func (CommitAck) SizeBytes() int { return msgHeader + 1 }

// UnlockMsg releases an ACS member after a rejection (§10) or aborts an
// already-committed job after a commit failure. From identifies the
// initiator so abort receipts can be acknowledged when the cluster runs
// with fault injection (the initiator retransmits unacknowledged aborts —
// a lost abort must not leave reservations of a rejected job behind).
type UnlockMsg struct {
	Job   string
	From  graph.NodeID
	Abort bool // also cancel any reservations of Job
}

func (UnlockMsg) Kind() string   { return "rtds.unlock" }
func (UnlockMsg) SizeBytes() int { return msgHeader + 4 + 1 } // initiator id + abort flag

// UnlockAck acknowledges an abort unlock; only sent on faulty clusters.
type UnlockAck struct {
	Job    string
	Member graph.NodeID
}

func (UnlockAck) Kind() string   { return "rtds.unlock-ack" }
func (UnlockAck) SizeBytes() int { return msgHeader }

// ResultMsg models a predecessor task's result travelling to the site of a
// successor task during distributed execution (§13 "Communication Delays").
// For identifies the consuming task when edges carry distinct data volumes;
// 0 means the result serves every local successor of Task.
type ResultMsg struct {
	Job   string
	Task  dag.TaskID
	For   dag.TaskID
	Bytes int
}

func (ResultMsg) Kind() string     { return "rtds.result" }
func (m ResultMsg) SizeBytes() int { return msgHeader + m.Bytes }

// DoneMsg reports a completed task to the job's initiator so it can record
// end-to-end completion.
type DoneMsg struct {
	Job  string
	Task dag.TaskID
	At   float64
}

func (DoneMsg) Kind() string   { return "rtds.done" }
func (DoneMsg) SizeBytes() int { return msgHeader + 12 }
