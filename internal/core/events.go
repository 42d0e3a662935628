package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core/txn"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
)

// EventKind labels a protocol fact.
type EventKind string

// Protocol event kinds, in rough lifecycle order.
const (
	EvArrival   EventKind = "arrival"      // job arrived at its origin site
	EvDeferred  EventKind = "deferred"     // processing deferred (site locked)
	EvLocalOK   EventKind = "local-accept" // whole DAG guaranteed locally
	EvEnroll    EventKind = "enroll"       // ACS enrollment started
	EvACSFixed  EventKind = "acs-fixed"    // enrollment window closed
	EvMapped    EventKind = "mapped"       // trial mapping built
	EvValidated EventKind = "validated"    // all endorsements collected
	EvCommit    EventKind = "commit"       // permutation dispatched
	EvDecided   EventKind = "decided"      // final accept/reject decision
	EvTaskDone  EventKind = "task-done"    // one task completed
	EvJobDone   EventKind = "job-done"     // all tasks completed

	// Fault-handling events (only emitted on resilient clusters).
	EvPhaseTimeout EventKind = "phase-timeout" // validation/commit window expired
	EvLeaseExpired EventKind = "lease-expired" // member lock lease fired (silent initiator)
	EvAbortRetry   EventKind = "abort-retry"   // abort unlock retransmitted (or given up)

	// Anomalies (Cause says which): a protocol bug on a plain cluster, an
	// expected consequence of faults or churn on a resilient one.
	EvViolation  EventKind = "violation"
	EvDisruption EventKind = "disruption"

	// Membership events (membership armed): the kinds of membership.Note.
	EvRouteRepair   EventKind = "route-repair"   // table rebuilt/merged after a membership change
	EvRepairSettled EventKind = "repair-settled" // re-flood quiesced; deferred enrollments resume
	EvMemberDead    EventKind = "member-dead"    // a site declared (or learned) dead
	EvMemberAlive   EventKind = "member-alive"   // a site resurrected
	EvMemberRefute  EventKind = "member-refute"  // this site refuted its own death notice
	EvMemberJoin    EventKind = "member-join"    // a joiner admitted by this site
	EvJoined        EventKind = "joined"         // this site completed its join handshake
	EvJoinFailed    EventKind = "join-failed"    // the join handshake ran out of retries
)

// Cause names what an anomaly (EvViolation, EvDisruption) reports.
type Cause uint8

// Anomaly causes, with the particulars each one sets.
const (
	CauseTTL              Cause = iota + 1 // a routed Msg from From to Peer ran out of hops
	CauseNoRoute                           // no route to Peer for a routed Msg
	CauseNoGraph                           // a commit dispatched a share without the job's graph
	CauseLocalCommit                       // the plan refused a just-admitted local ticket with error Msg
	CauseLostFragments                     // the plan lost Task's fragments; the execution is torn down
	CauseStartNoInputs                     // Task's slot began without Inputs
	CauseCompleteNoInputs                  // Task completed without Inputs (preemptive plans)
)

// Event is one protocol fact: what happened (Kind), where and when on that
// site's clock, to which job (empty for site facts). The particulars are set
// per kind; nothing is formatted until String renders them.
type Event struct {
	At   float64
	Site graph.NodeID
	Job  string
	Kind EventKind

	Peer, From graph.NodeID // another site (a lock holder, a destination, a membership subject) and a source
	N, M       int          // counts (sphere, ACS, processors, members, tries) or an incarnation; see detail
	Task       dag.TaskID
	T, U       float64      // a time or length: a completion, a window, a makespan
	Epoch      uint64       // the route epoch of a membership event
	Stage      RejectStage  // a decision's reject stage; the phase that timed out
	Outcome    Outcome      // a decision's outcome
	Cause      Cause        // what an anomaly is
	Msg        string       // the payload kind or the error an anomaly names
	Inputs     []dag.TaskID // the inputs a task ran without

	job *Job // the record the fact applies to; record fills Job from it
}

// String renders one line of the timeline.
func (e Event) String() string {
	if d := e.detail(); d != "" {
		return fmt.Sprintf("%10.3f site=%-3d %-12s %s (%s)", e.At, e.Site, e.Kind, e.Job, d)
	}
	return fmt.Sprintf("%10.3f site=%-3d %-12s %s", e.At, e.Site, e.Kind, e.Job)
}

// detail renders the particulars of the fact's kind.
func (e Event) detail() string {
	switch e.Kind {
	case EvArrival, EvLocalOK:
		return ""
	case EvDeferred:
		if e.Peer == noLock {
			return "route repair settling"
		}
		return fmt.Sprintf("locked by %d", e.Peer)
	case EvEnroll:
		return fmt.Sprintf("pcs=%d", e.N)
	case EvACSFixed:
		if e.N == 0 {
			return "acs=1 (nobody enrolled)"
		}
		return fmt.Sprintf("acs=%d", e.N)
	case EvMapped:
		return fmt.Sprintf("procs=%d case=%s M=%.3g M*=%.3g", e.N, mapper.AdjustCase(e.M), e.T, e.U)
	case EvValidated:
		return fmt.Sprintf("coupling=%d/%d", e.N, e.M)
	case EvCommit:
		return fmt.Sprintf("executing=%d", e.N)
	case EvDecided:
		if e.Stage == "" {
			return e.Outcome.String()
		}
		return e.Outcome.String() + "/" + string(e.Stage)
	case EvTaskDone:
		return fmt.Sprintf("t%d at %.3f", e.Task, e.T)
	case EvJobDone:
		return fmt.Sprintf("completed %.3f", e.T)
	case EvPhaseTimeout:
		return fmt.Sprintf("%s missing=%d", e.Stage, e.N)
	case EvLeaseExpired:
		return fmt.Sprintf("initiator %d silent", e.Peer)
	case EvAbortRetry:
		if e.M > txn.MaxAbortTries {
			return fmt.Sprintf("gave up on %d members after %d tries", e.N, txn.MaxAbortTries)
		}
		return fmt.Sprintf("try %d to %d members", e.M, e.N)
	case EvViolation, EvDisruption:
		return e.anomaly()
	case EvRouteRepair, EvRepairSettled:
		return fmt.Sprintf("epoch %#x", e.Epoch)
	case EvMemberDead, EvMemberAlive, EvMemberRefute, EvMemberJoin, EvJoined, EvJoinFailed:
		return fmt.Sprintf("site %d inc %d from %d", e.Peer, e.N, e.From)
	}
	return fmt.Sprintf("kind %q", string(e.Kind))
}

// anomaly renders what an anomaly reports: the text Violations lists.
func (e Event) anomaly() string {
	switch e.Cause {
	case CauseTTL:
		return fmt.Sprintf("TTL exhausted forwarding %q from %d to %d at %d", e.Msg, e.From, e.Peer, e.Site)
	case CauseNoRoute:
		return fmt.Sprintf("site %d has no route to %d for %q", e.Site, e.Peer, e.Msg)
	case CauseNoGraph:
		return fmt.Sprintf("site %d: commit for job %s carries no graph", e.Site, e.Job)
	case CauseLocalCommit:
		return fmt.Sprintf("site %d: unlocked local commit of %s failed: %s", e.Site, e.Job, e.Msg)
	case CauseLostFragments:
		return fmt.Sprintf("site %d lost fragments of %s/t%d", e.Site, e.Job, e.Task)
	case CauseStartNoInputs, CauseCompleteNoInputs:
		verb := "started"
		if e.Cause == CauseCompleteNoInputs {
			verb = "completed"
		}
		return fmt.Sprintf("site %d: job %s task %d %s at %v without inputs from %v",
			e.Site, e.Job, e.Task, verb, e.At, e.Inputs)
	}
	return fmt.Sprintf("cause %d", e.Cause)
}

// record is the one writer of protocol facts. Under c.mu it applies the
// fact to its job — ACS size, processor count, decision, task completion —
// counts it in the recording site's tally, and appends it to the log:
// decisions and anomalies always, every other kind only under
// Config.TraceEvents. At is the recording site's clock.
//
//lint:hotpath -- every protocol phase of every job records a fact; untraced, a record must allocate nothing
func (c *Cluster) record(e Event) {
	e.At = c.tr.NowOf(e.Site)
	if e.job != nil {
		e.Job = e.job.ID
	}
	if e.Kind == EvViolation && c.resilient() {
		// Under faults or churn every anomaly is an expected disruption, so
		// Violations stays checkable on faulty runs. ROADMAP item 1(c)
		// replaces this blanket rule with causal attribution.
		e.Kind = EvDisruption
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	j, keep, t := e.job, c.cfg.TraceEvents, &c.sites[e.Site].tally
	switch e.Kind {
	case EvACSFixed: // once per job: its transaction closes enrollment once
		j.ACSSize = e.N
		if e.N > 0 {
			t.acsSum, t.acsN = t.acsSum+e.N, t.acsN+1
		}
	case EvLocalOK:
		j.NumProcs = 1
	case EvMapped:
		j.NumProcs = e.N
	case EvDecided:
		if j.Outcome != Pending {
			panic(fmt.Sprintf("core: job %s decided twice (%v then %v)", j.ID, j.Outcome, e.Outcome))
		}
		j.Outcome, j.RejectStage, j.DecisionAt = e.Outcome, e.Stage, e.At
		t.outcomes[e.Outcome]++
		if e.Outcome == Rejected {
			t.rejectedBy[e.Stage]++
		}
		b, latency := 0, e.At-j.Arrival
		for b < len(LatencyBounds) && latency > LatencyBounds[b] {
			b++
		}
		t.latency[b], t.latencySum = t.latency[b]+1, t.latencySum+latency
		t.completed(j)
		keep = true
		if c.decideWake != nil { // a channel, not a timer: this package runs under the DES
			close(c.decideWake)
			c.decideWake = nil
		}
	case EvTaskDone:
		if j.taskDone[e.Task-1] {
			return // a retransmitted completion
		}
		j.taskDone[e.Task-1], j.tasksLeft = true, j.tasksLeft-1
		j.CompletedAt = max(j.CompletedAt, e.T)
		j.Done = j.tasksLeft == 0
		t.completed(j) // a retransmitted completion returned above
		if j.Done && keep {
			c.log = append(c.log, e)
			e.Kind, e.T = EvJobDone, j.CompletedAt
		}
	case EvViolation:
		t.violations, keep = t.violations+1, true
	case EvDisruption:
		t.disruptions, keep = t.disruptions+1, true
	case EvArrival, EvDeferred, EvEnroll, EvValidated, EvCommit, EvJobDone,
		EvPhaseTimeout, EvLeaseExpired, EvAbortRetry, EvRouteRepair, EvRepairSettled,
		EvMemberDead, EvMemberAlive, EvMemberRefute, EvMemberJoin, EvJoined, EvJoinFailed: // change no job
	}
	if keep {
		c.log = append(c.log, e)
	}
}

// Events returns the log in chronological order (stable for simultaneous
// facts): every decision and anomaly, and under TraceEvents every fact.
func (c *Cluster) Events() []Event {
	c.mu.Lock()
	out := append([]Event(nil), c.log...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// JobEvents filters the log to one job.
func (c *Cluster) JobEvents(jobID string) []Event {
	return slices.DeleteFunc(c.Events(), func(e Event) bool { return e.Job != jobID })
}

// Violations lists the protocol violations (causality misses, unexpected
// drops) in recording order. A sound run has none; tests assert emptiness.
// On a resilient cluster every anomaly is a disruption instead.
func (c *Cluster) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for i := range c.log {
		if c.log[i].Kind == EvViolation {
			out = append(out, c.log[i].anomaly())
		}
	}
	return out
}
