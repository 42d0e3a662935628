// Package simnet provides the message transport the RTDS protocol runs on:
// sites exchange payloads over the links of an internal/graph topology, with
// per-link propagation delay. By default links are faithful, loss-less and
// order-preserving, and sites are faultless (paper §2); SetFaults arms a
// seeded FaultPlan that injects per-traversal loss, delay jitter (which may
// reorder a link) and fail-silent site crash windows — the adverse
// conditions of an arbitrary wide network.
//
// One implementation lives in this package, and one outside it:
//
//   - DES: fully deterministic, used by all experiments and benchmarks. A
//     message in flight is the payload of a pooled kernel event node
//     (Kernel.Deliver), so a link traversal allocates nothing. One
//     transport over a small Kernel interface that both event engines
//     satisfy: the serial reference engine (internal/sim) and the
//     conservative parallel kernel (internal/sim/par), which routes
//     partition-local traffic into per-partition queues and
//     cross-partition traffic through the barrier outboxes. NewKernel
//     picks between them from a worker count;
//   - internal/wire.NetTransport: the same interface over TCP with a binary
//     wire codec in real (scaled) time, one site per process (cmd/rtds-node)
//     or a set of sites in one process (the in-process live cluster), whose
//     every wait is an entry in this package's process Clock.
//
// Only adjacent sites can exchange messages directly; multi-hop delivery is
// the protocol layer's job (it forwards along routing-table next hops), so
// relay traffic is accounted like any other message, matching how the paper
// counts communication.
package simnet

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/determinism"
	"repro/internal/graph"
)

// Payload is anything a site sends to another site. Kind routes the message
// to protocol handlers and labels the statistics; SizeBytes estimates the
// wire size for communication accounting. A sent payload belongs to whoever
// receives it: the sender does not touch it after Send, and the in-process
// transports hand the receiver the object itself.
type Payload interface {
	Kind() string
	SizeBytes() int
}

// Handler receives payloads addressed to a node. A transport invokes the
// handler serially per node.
type Handler func(from graph.NodeID, p Payload)

// CancelFunc cancels a pending timer; it reports whether the timer was still
// pending.
type CancelFunc func() bool

// Transport is the interface protocol layers program against.
type Transport interface {
	// Attach registers the message handler for a node. Must be called for
	// every node before traffic starts.
	Attach(id graph.NodeID, h Handler)
	// Send delivers p from one node to an adjacent node after the link
	// delay. Sending to a non-neighbor is a protocol bug and returns an
	// error.
	Send(from, to graph.NodeID, p Payload) error
	// After runs fn in node id's execution context after d time units.
	After(id graph.NodeID, d float64, fn func()) CancelFunc
	// Now reports the current (virtual or scaled real) time; on a
	// partitioned DES kernel it is meaningful between runs only. NowOf
	// reports the time node id's execution context observes: its
	// partition's clock on the DES, Now on the wall-clock transports.
	Now() float64
	NowOf(id graph.NodeID) float64
	// Stats exposes the communication counters.
	Stats() *Stats
	// SetFaults arms a fault plan whose times are relative to epoch.
	// Traffic sent before the call is unaffected; protocol layers arm the
	// plan after their bootstrap so construction always runs fault-free.
	SetFaults(plan FaultPlan, epoch float64)
}

// Stats accumulates communication counters. Safe for concurrent use.
//
// For parallel transports a Stats can be sharded: Shard returns a child
// counter set that folds into the parent's reads, so each simulation
// partition records on its own shard (its own mutex and cache lines) while
// readers and Reset keep seeing one aggregate. Counts are order-free sums,
// so sharding cannot change any observable total.
type Stats struct {
	mu          sync.Mutex
	messages    int64
	bytes       int64
	controlMsgs int64
	controlB    int64
	dropped     int64
	crossMsgs   int64
	boundary    func(from, to graph.NodeID) bool
	byKind      map[string]*kindCount
	shards      []*Stats
}

// kindCount is one kind's traversal count, with the control-plane
// classification of the kind remembered from its first traversal.
type kindCount struct {
	n       int64
	control bool
}

// NewStats returns zeroed counters.
func NewStats() *Stats {
	return &Stats{byKind: make(map[string]*kindCount)}
}

// Shard returns a child counter set aggregated into s by every read and
// zeroed by Reset. RecordEdge/Drop on a shard touch only the shard's own mutex,
// which keeps simulation partitions recording in parallel off each other's
// cache lines.
func (s *Stats) Shard() *Stats {
	child := NewStats()
	s.mu.Lock()
	child.boundary = s.boundary
	s.shards = append(s.shards, child)
	s.mu.Unlock()
	return child
}

// SetBoundary installs a link classifier: traversals for which fn reports
// true are additionally counted as boundary crossings (CrossMessages). The
// hierarchical routing layer uses it to count cross-region traffic; nil (the
// default) counts nothing. Propagates to existing and future shards.
func (s *Stats) SetBoundary(fn func(from, to graph.NodeID) bool) {
	s.mu.Lock()
	s.boundary = fn
	shards := s.shards
	s.mu.Unlock()
	for _, c := range shards {
		c.SetBoundary(fn)
	}
}

// statTotals is one flat aggregate of the scalar counters.
type statTotals struct {
	messages, bytes, controlMsgs, controlB, dropped, crossMsgs int64
}

// totals sums s's own counters and every shard's, recursively.
func (s *Stats) totals() statTotals {
	s.mu.Lock()
	t := statTotals{s.messages, s.bytes, s.controlMsgs, s.controlB, s.dropped, s.crossMsgs}
	shards := s.shards
	s.mu.Unlock()
	for _, c := range shards {
		ct := c.totals()
		t.messages += ct.messages
		t.bytes += ct.bytes
		t.controlMsgs += ct.controlMsgs
		t.controlB += ct.controlB
		t.dropped += ct.dropped
		t.crossMsgs += ct.crossMsgs
	}
	return t
}

// controlKind classifies control-plane traffic — membership heartbeats,
// death/alive notices, join handshakes ("member.*") and routing-table
// floods ("pcs.*", the bootstrap and the epoch-tagged repairs). Control
// traversals count toward the totals AND the control counters, so per-job
// protocol cost (total − control) can be reported without heartbeat noise.
func controlKind(kind string) bool {
	return strings.HasPrefix(kind, "member.") || strings.HasPrefix(kind, "pcs.")
}

// count adds one traversal of the given kind and size; callers hold s.mu.
func (s *Stats) count(kind string, size int64) {
	s.messages++
	s.bytes += size
	kc := s.byKind[kind]
	if kc == nil {
		kc = &kindCount{control: controlKind(kind)} //lint:allow hotalloc -- once per message kind between resets
		s.byKind[kind] = kc
	}
	kc.n++
	if kc.control {
		s.controlMsgs++
		s.controlB += size
	}
}

// RecordEdge counts one sent payload with its link endpoints, so traversals
// crossing the installed boundary classifier are also counted. Kind and
// size are evaluated once, outside the lock: sizing a payload can walk it.
func (s *Stats) RecordEdge(from, to graph.NodeID, p Payload) {
	kind, size := p.Kind(), int64(p.SizeBytes())
	s.mu.Lock()
	s.count(kind, size)
	if s.boundary != nil && s.boundary(from, to) {
		s.crossMsgs++
	}
	s.mu.Unlock()
}

// CrossMessages reports how many traversals crossed the boundary installed
// with SetBoundary (0 when no classifier is installed).
func (s *Stats) CrossMessages() int64 { return s.totals().crossMsgs }

// ControlMessages reports how many traversals carried control-plane
// payloads (membership and routing-table traffic); ControlBytes is their
// byte volume. Both are included in Messages/Bytes.
func (s *Stats) ControlMessages() int64 { return s.totals().controlMsgs }

// ControlBytes reports the byte volume of control-plane traversals.
func (s *Stats) ControlBytes() int64 { return s.totals().controlB }

// Drop counts a traversal the fault injector discarded. Dropped traversals
// are not counted as messages: they never crossed the link.
func (s *Stats) Drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropped++
}

// Dropped reports how many traversals the fault injector discarded.
func (s *Stats) Dropped() int64 { return s.totals().dropped }

// Messages reports the total number of link traversals.
func (s *Stats) Messages() int64 { return s.totals().messages }

// Bytes reports the total bytes placed on links.
func (s *Stats) Bytes() int64 { return s.totals().bytes }

// ByKind returns a copy of the per-kind message counts, shards included.
func (s *Stats) ByKind() map[string]int64 {
	s.mu.Lock()
	out := make(map[string]int64, len(s.byKind))
	for k, kc := range s.byKind {
		out[k] = kc.n
	}
	shards := s.shards
	s.mu.Unlock()
	for _, c := range shards {
		for k, v := range c.ByKind() {
			out[k] += v
		}
	}
	return out
}

// Reset zeroes all counters, shards included (used between experiment
// phases to separate setup traffic from per-job traffic).
func (s *Stats) Reset() {
	s.mu.Lock()
	s.messages, s.bytes, s.dropped = 0, 0, 0
	s.controlMsgs, s.controlB, s.crossMsgs = 0, 0, 0
	s.byKind = make(map[string]*kindCount)
	shards := s.shards
	s.mu.Unlock()
	for _, c := range shards {
		c.Reset()
	}
}

// String renders the counters compactly, kinds sorted for determinism.
func (s *Stats) String() string {
	t := s.totals()
	byKind := s.ByKind()
	kinds := determinism.SortedKeys(byKind)
	out := fmt.Sprintf("msgs=%d bytes=%d", t.messages, t.bytes)
	if t.dropped > 0 {
		out += fmt.Sprintf(" dropped=%d", t.dropped)
	}
	for _, k := range kinds {
		out += fmt.Sprintf(" %s=%d", k, byKind[k])
	}
	return out
}
