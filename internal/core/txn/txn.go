// Package txn holds the initiator-side state machine of one distributed
// scheduling transaction: the enroll → validate → commit progression of
// paper §8–§11, with every phase's timer handle, acknowledgement
// bookkeeping and abort/retransmission state in one place.
//
// The package is deliberately free of protocol I/O: it never sends a
// message, never reads a routing table and never touches a scheduling plan.
// A Txn is pure bookkeeping with guarded transitions — the Site in
// internal/core drives it, translating each transition's outcome into the
// sends, mapper invocations and plan commits of the protocol. This split is
// what keeps the state graph auditable:
//
//	Enrolling ──(all acks | window timer)──▶ Validating
//	Validating ──(all endorsements | phase timer)──▶ Committing
//	Committing ──(all commit acks | phase timer)──▶ Done
//	    any ──(reject: empty ACS, mapper, matching, commit failure)──▶ Done
//
// Every transition is guarded by the current phase, so the races inherent
// to a timer-driven protocol (an expiry firing at the same instant as the
// final ack, a straggler ack after the window closed) collapse into no-ops
// instead of double transitions.
package txn

import (
	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/simnet"
)

// Phase names one state of the transaction state machine.
type Phase int

const (
	// Enrolling: enrollment requests are out; the window timer is armed.
	Enrolling Phase = iota
	// Validating: the ACS is fixed and the trial mapping is being endorsed.
	Validating
	// Committing: the coupling permutation is dispatched; executing members
	// confirm or refuse their insertions.
	Committing
	// Done: the transaction reached a decision (accept or reject).
	Done
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

// Txn is the initiator-side record of one distributed job. Fields are
// grouped by the phase that populates them; collections that decide
// transition completion (acks, awaited endorsements, awaited commits) are
// unexported so every mutation goes through a guarded method.
type Txn struct {
	// Job is the transaction's job identifier.
	Job string

	phase Phase
	// timer cancels the current phase's expiry timer: the enrollment window
	// first, then the validation and commit timers that mirror it. Every
	// path that closes a phase cancels and nils it before advancing.
	timer simnet.CancelFunc

	// Enrollment (§8).
	Expected []graph.NodeID // members the enrollment was sent to
	acks     map[graph.NodeID]Enrollment

	// Validation (§9–§10).
	ACS     []graph.NodeID // enrolled members (self excluded), sorted
	Omega   float64        // ACS delay diameter, sizes the phase timers
	TM      *mapper.TrialMapping
	Endorse map[graph.NodeID][]int
	await   map[graph.NodeID]bool
	// ValTimedOut records that validation closed by its timer with
	// endorsements missing.
	ValTimedOut bool

	// Commit (§11).
	Assignment map[int]graph.NodeID // logical proc -> executing site
	commitWait map[graph.NodeID]bool
	// CommitFail marks the transaction for an abort-everywhere resolution.
	CommitFail bool
	// CommitsSent records that commit/release messages reached the ACS, so
	// a later rejection must abort rather than merely unlock.
	CommitsSent bool
	// SelfOK records whether the initiator committed its own share.
	SelfOK bool
	// ComTimedOut records that the commit phase was resolved by its timer.
	ComTimedOut bool
}

// New starts a transaction in the Enrolling phase, expecting an enrollment
// answer from each of the given members.
func New(job string, expected []graph.NodeID) *Txn {
	return &Txn{
		Job:      job,
		phase:    Enrolling,
		Expected: expected,
		acks:     make(map[graph.NodeID]Enrollment),
	}
}

// Phase reports the current phase.
func (t *Txn) Phase() Phase { return t.phase }

// SetTimer installs the current phase's expiry timer handle, replacing any
// previous handle without cancelling it (the caller cancels via StopTimer).
func (t *Txn) SetTimer(c simnet.CancelFunc) { t.timer = c }

// StopTimer cancels and clears the armed phase timer. Cancelling before
// closing a phase is what makes the final-ack/expiry tie race safe: the
// nil-ed handle plus the phase guards keep a window from closing twice.
func (t *Txn) StopTimer() {
	if t.timer != nil {
		t.timer()
		t.timer = nil
	}
}

// TimerFired clears the timer handle without cancelling, for use inside
// the expiry callback itself (the transport already consumed the timer).
func (t *Txn) TimerFired() { t.timer = nil }

// ---------------------------------------------------------------------------
// Enrolling

// RecordEnrollment stores one member's enrollment and reports whether every
// expected member has now answered (the window can close early).
func (t *Txn) RecordEnrollment(m graph.NodeID, e Enrollment) (complete bool) {
	t.acks[m] = e
	return len(t.acks) == len(t.Expected)
}

// Enrollments reports how many members enrolled.
func (t *Txn) Enrollments() int { return len(t.acks) }

// Enrollment returns a member's stored enrollment report.
func (t *Txn) Enrollment(m graph.NodeID) Enrollment { return t.acks[m] }

// MissingEnrollments lists the expected members that never enrolled, in
// Expected order (deterministic for retransmission and unlocking).
func (t *Txn) MissingEnrollments() []graph.NodeID {
	var missing []graph.NodeID
	for _, m := range t.Expected {
		if _, ok := t.acks[m]; !ok {
			missing = append(missing, m)
		}
	}
	return missing
}

// CloseEnrollment transitions Enrolling → Validating. It is reachable from
// both the final enrollment ack and the window timer; the phase guard makes
// the second entry a no-op whichever path wins the race. Returns false when
// the window was already closed.
func (t *Txn) CloseEnrollment() bool {
	if t.phase != Enrolling {
		return false
	}
	t.StopTimer()
	t.phase = Validating
	return true
}

// FixACS freezes the Accepted Computing Sphere: the enrolled members in
// ascending site order (§8). Call once, after CloseEnrollment.
func (t *Txn) FixACS() []graph.NodeID {
	t.ACS = determinism.SortedKeys(t.acks)
	return t.ACS
}

// ---------------------------------------------------------------------------
// Validating

// BeginValidation initializes the endorsement bookkeeping.
func (t *Txn) BeginValidation() {
	t.Endorse = make(map[graph.NodeID][]int)
	t.await = make(map[graph.NodeID]bool)
}

// ExpectEndorsement marks one ACS member as owing a validation answer.
func (t *Txn) ExpectEndorsement(m graph.NodeID) { t.await[m] = true }

// SetEndorsement records an endorsement that needs no acknowledgement (the
// initiator's own, computed in place).
func (t *Txn) SetEndorsement(m graph.NodeID, procs []int) { t.Endorse[m] = procs }

// RecordEndorsement stores one member's validation answer. counted is false
// for answers that are stale (wrong phase) or unexpected; complete reports
// that every awaited member has now answered.
func (t *Txn) RecordEndorsement(m graph.NodeID, procs []int) (counted, complete bool) {
	if t.phase != Validating || !t.await[m] {
		return false, false
	}
	delete(t.await, m)
	t.Endorse[m] = procs
	return true, len(t.await) == 0
}

// Awaiting reports how many validation answers are still outstanding.
func (t *Txn) Awaiting() int { return len(t.await) }

// TimeoutValidation closes the validation phase from its expiry timer:
// members that never answered are given empty endorsements so the coupling
// runs on what arrived. Returns the number of silent members and false when
// the timeout lost the race against the final ack (nothing to do).
func (t *Txn) TimeoutValidation() (missing int, fired bool) {
	if t.phase != Validating {
		return 0, false
	}
	t.TimerFired()
	if len(t.await) == 0 {
		return 0, false
	}
	t.ValTimedOut = true
	missing = len(t.await)
	for m := range t.await {
		t.Endorse[m] = nil
	}
	t.await = make(map[graph.NodeID]bool)
	return missing, true
}

// ---------------------------------------------------------------------------
// Committing

// BeginCommit transitions Validating → Committing and initializes the
// commit-acknowledgement bookkeeping.
func (t *Txn) BeginCommit() {
	t.phase = Committing
	t.commitWait = make(map[graph.NodeID]bool)
}

// ExpectCommitAck marks one executing member as owing a commit answer.
func (t *Txn) ExpectCommitAck(m graph.NodeID) { t.commitWait[m] = true }

// CommitsOutstanding reports how many commit answers are still awaited.
func (t *Txn) CommitsOutstanding() int { return len(t.commitWait) }

// RecordCommitAck stores one executing member's commit confirmation or
// refusal. counted is false for stale or unexpected answers; complete
// reports that every executing member has now answered.
func (t *Txn) RecordCommitAck(m graph.NodeID, ok bool) (counted, complete bool) {
	if t.phase != Committing || !t.commitWait[m] {
		return false, false
	}
	delete(t.commitWait, m)
	if !ok {
		t.CommitFail = true
	}
	return true, len(t.commitWait) == 0
}

// TimeoutCommit resolves the commit phase from its expiry timer. The silent
// members may or may not have committed their shares, so the transaction is
// marked failed (abort everywhere is the only safe resolution). Returns the
// number of silent members and false when the timer lost the race.
func (t *Txn) TimeoutCommit() (missing int, fired bool) {
	if t.phase != Committing {
		return 0, false
	}
	t.TimerFired()
	if len(t.commitWait) == 0 {
		return 0, false
	}
	t.ComTimedOut = true
	t.CommitFail = true
	missing = len(t.commitWait)
	t.commitWait = make(map[graph.NodeID]bool)
	return missing, true
}

// ---------------------------------------------------------------------------
// Done

// Finish transitions any live phase → Done, stopping the armed timer.
// Returns false when the transaction already finished (duplicate decision
// paths collapse into one).
func (t *Txn) Finish() bool {
	if t.phase == Done {
		return false
	}
	t.phase = Done
	t.StopTimer()
	return true
}
