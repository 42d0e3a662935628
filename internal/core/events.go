package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// EventKind labels a protocol lifecycle event.
type EventKind string

// Protocol event kinds, in rough lifecycle order.
const (
	EvArrival   EventKind = "arrival"      // job arrived at its origin site
	EvDeferred  EventKind = "deferred"     // processing deferred (site locked)
	EvLocalOK   EventKind = "local-accept" // whole DAG guaranteed locally
	EvEnroll    EventKind = "enroll"       // ACS enrollment started
	EvEscalate  EventKind = "escalate"     // empty window reopened toward adjacent regions' landmarks
	EvACSFixed  EventKind = "acs-fixed"    // enrollment window closed
	EvMapped    EventKind = "mapped"       // trial mapping built
	EvValidated EventKind = "validated"    // all endorsements collected
	EvCommit    EventKind = "commit"       // permutation dispatched
	EvDecided   EventKind = "decided"      // final accept/reject decision
	EvTaskDone  EventKind = "task-done"    // one task completed
	EvJobDone   EventKind = "job-done"     // all tasks completed

	// Fault-handling events (only emitted on clusters with fault injection
	// or on the graceful-degradation paths that replaced hard panics).
	EvPhaseTimeout EventKind = "phase-timeout" // validation/commit window expired
	EvLeaseExpired EventKind = "lease-expired" // member lock lease fired (silent initiator)
	EvMsgDropped   EventKind = "msg-dropped"   // protocol layer dropped a message (no route / TTL)
	EvExecAborted  EventKind = "exec-aborted"  // execution torn down outside the normal abort path
	EvAbortRetry   EventKind = "abort-retry"   // abort unlock retransmitted (or given up)

	// Membership events (only on clusters with the membership layer armed).
	// The kind strings match what the membership manager emits.
	EvRouteRepair   EventKind = "route-repair"   // table rebuilt/merged after a membership change
	EvRepairSettled EventKind = "repair-settled" // re-flood quiesced; deferred enrollments resume
	EvMemberDead    EventKind = "member-dead"    // a site declared (or learned) dead
	EvMemberAlive   EventKind = "member-alive"   // a site resurrected
	EvMemberRefute  EventKind = "member-refute"  // this site refuted its own death notice
	EvMemberJoin    EventKind = "member-join"    // a joiner admitted by this site
	EvJoined        EventKind = "joined"         // this site completed its join handshake
	EvJoinFailed    EventKind = "join-failed"    // the join handshake ran out of retries
)

// Event is one timeline entry. Events are recorded only when
// Config.TraceEvents is set.
type Event struct {
	At     float64
	Site   graph.NodeID
	Job    string
	Kind   EventKind
	Detail string
}

// String renders one line of the timeline.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%10.3f site=%-3d %-12s %s", e.At, e.Site, e.Kind, e.Job)
	}
	return fmt.Sprintf("%10.3f site=%-3d %-12s %s (%s)", e.At, e.Site, e.Kind, e.Job, e.Detail)
}

// tracing reports whether the timeline is recorded. A call site whose detail
// string has to be built (fmt.Sprintf, concatenation) guards the whole event
// call with it, so an untraced run formats nothing; constant details go
// straight to event.
func (c *Cluster) tracing() bool { return c.cfg.TraceEvents }

func (c *Cluster) event(site graph.NodeID, job string, kind EventKind, detail string) {
	if !c.tracing() {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, Event{
		At: c.tr.NowOf(site), Site: site, Job: job, Kind: kind, Detail: detail,
	})
	c.mu.Unlock()
}

// Events returns the recorded timeline in chronological order (stable for
// simultaneous events). Empty unless Config.TraceEvents is set.
func (c *Cluster) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Event(nil), c.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// JobEvents filters the timeline to one job.
func (c *Cluster) JobEvents(jobID string) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Job == jobID {
			out = append(out, e)
		}
	}
	return out
}
