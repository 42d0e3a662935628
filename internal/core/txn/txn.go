// Package txn holds the initiator-side bookkeeping of one distributed
// scheduling transaction (paper §8–§11). It never sends a message, reads a
// routing table or touches a plan; internal/core drives it. Its one
// pattern is Wait: a phase's request goes to a set of members, and the
// phase moves on when all of them answered or its timer expired.
// docs/architecture.md describes how the two packages divide the protocol.
package txn

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/simnet"
)

// DistEntry is one line of a member's distance vector, reported at
// enrollment so the initiator can compute the exact ACS delay diameter.
type DistEntry struct {
	Dest graph.NodeID
	Dist float64
}

// Enrollment is one member's enrollment report: its surplus, computing
// power and distance vector.
type Enrollment struct {
	Surplus float64
	Power   float64
	Dists   []DistEntry
}

// Wait is one phase's fan-out: the members its request was sent to, in
// send order, with each member's answer held at the member's position. It
// is open from Open until the last member answered or Expire closed it,
// and it counts an answer only while open, only from one of its members
// and only once per member. Those guards are what make the races of a
// timer-driven protocol (an expiry at the instant of the last answer, a
// straggler after the window closed) no-ops instead of double transitions.
type Wait[T any] struct {
	members []graph.NodeID
	answers []answer[T]
	pending int
	open    bool
	// timer cancels the expiry; the last answer cancels it, Expire drops
	// the spent handle.
	timer simnet.CancelFunc
}

type answer[T any] struct {
	v  T
	ok bool
}

// Open starts the wait on the members the phase was just sent to, in send
// order, and its expiry timer's handle. A wait on no member stays open
// until it expires.
func (w *Wait[T]) Open(members []graph.NodeID, timer simnet.CancelFunc) {
	*w = Wait[T]{members: members, answers: make([]answer[T], len(members)), pending: len(members), open: true, timer: timer}
}

// Answer records m's answer. counted is false when the wait is closed, m
// is not one of its members or m already answered. complete reports that
// this was the last answer: the wait closes and its timer is cancelled.
func (w *Wait[T]) Answer(m graph.NodeID, v T) (counted, complete bool) {
	if !w.open {
		return false, false
	}
	i := slices.Index(w.members, m)
	if i < 0 || w.answers[i].ok {
		return false, false
	}
	w.answers[i] = answer[T]{v, true}
	w.pending--
	if w.pending > 0 {
		return true, false
	}
	w.open = false
	if w.timer != nil {
		w.timer()
		w.timer = nil
	}
	return true, true
}

// Expire closes the wait from inside its timer's callback and lists the
// members that never answered, in send order (empty, not nil, for a wait
// on no member). It returns nil when the wait was already closed: the last
// answer won the race against the timer.
func (w *Wait[T]) Expire() []graph.NodeID {
	w.timer = nil
	if !w.open {
		return nil
	}
	w.open = false
	missing := make([]graph.NodeID, 0, w.pending)
	for i, a := range w.answers {
		if !a.ok {
			missing = append(missing, w.members[i])
		}
	}
	return missing
}

// Members lists the members the phase was sent to, in send order.
func (w *Wait[T]) Members() []graph.NodeID { return w.members }

// Got returns the answer of Members()[i], and whether it arrived; a member
// that never answered reads as T's zero value.
func (w *Wait[T]) Got(i int) (T, bool) { return w.answers[i].v, w.answers[i].ok }

// Txn is the initiator-side record of one distributed job: one wait per
// phase, and what each phase fixed for the next.
type Txn struct {
	// Enroll waits on the enrollment fan-out (§8).
	Enroll Wait[Enrollment]
	ACS    []graph.NodeID // enrolled members (self excluded), ascending
	Omega  float64        // ACS delay diameter, sizes the later phase timers
	TM     *mapper.TrialMapping
	// Validate waits on the ACS's endorsements (§10), in ACS order; Own is
	// the initiator's endorsement, computed in place.
	Validate Wait[[]int]
	Own      []int
	// Commit waits on the executing members' commit answers (§11).
	Commit Wait[bool]
	// CommitsSent records that commit/release messages reached the ACS, so
	// a later rejection must abort rather than merely unlock.
	CommitsSent bool
}

// CommitFailed reports, once the commit wait closed, whether the job must
// be aborted everywhere: a member refused its share, or the timer closed
// the wait first and a silent member may or may not hold its share.
func (t *Txn) CommitFailed() bool {
	for _, a := range t.Commit.answers {
		if !a.v {
			return true
		}
	}
	return false
}

// MaxAbortTries bounds abort retransmission so runs terminate even when a
// member is permanently unreachable. At 10% loss, 8 rounds leave a 1e-8
// chance of an alive member missing every copy.
const MaxAbortTries = 8

// AbortRetry tracks one aborted job's unacknowledged abort unlocks at the
// initiator (faulty clusters only): the abort outlives the transaction,
// and each retransmission round is a wait on the members still silent.
type AbortRetry struct {
	Wait[struct{}]
	Tries int
}

// NextTry consumes one retry; it returns false when the budget is spent and
// the initiator should give up (the members' lock leases are the backstop).
func (a *AbortRetry) NextTry() bool {
	a.Tries++
	return a.Tries <= MaxAbortTries
}
