package core

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/simnet"
)

// Distributed execution (§11) with the §13 communication-delay realism:
// results travel between sites and tasks must not start before their inputs.

// execJob tracks the execution of one job's tasks on this site (§11).
type execJob struct {
	job       *Job
	g         *dag.Graph
	taskSites map[dag.TaskID]graph.NodeID
	// reservations holds this site's slots (non-preemptive) or the current
	// completion estimates (preemptive).
	reservations map[dag.TaskID]schedule.Reservation
	// arrived marks received cross-site results per (predecessor, consumer)
	// edge: with data volumes, each edge's transfer completes separately.
	arrived   map[[2]dag.TaskID]bool
	completed map[dag.TaskID]bool
	timers    []simnet.CancelFunc
	cancelled bool
}

// beginExecution registers this site's share of a job and schedules its
// execution timers.
func (s *Site) beginExecution(job *Job, taskSites map[dag.TaskID]graph.NodeID, tk *schedule.Ticket) {
	e := s.exec[job.ID]
	if e == nil {
		e = &execJob{
			job:          job,
			g:            job.Graph,
			taskSites:    taskSites,
			reservations: make(map[dag.TaskID]schedule.Reservation),
			arrived:      make(map[[2]dag.TaskID]bool),
			completed:    make(map[dag.TaskID]bool),
		}
		s.exec[job.ID] = e
	}
	if s.plan.Preemptive() {
		for _, r := range tk.Requests {
			e.reservations[dag.TaskID(r.Task)] = schedule.Reservation{Job: job.ID, Task: r.Task}
		}
		s.rescheduleAllExec()
		return
	}
	now := s.now()
	for _, pl := range tk.Placements {
		pl := pl
		id := dag.TaskID(pl.Task)
		e.reservations[id] = pl
		startDelay := math.Max(0, pl.Start-now)
		e.timers = append(e.timers,
			s.after(startDelay, func() { s.onTaskStart(e, id, 0) }),
			s.after(math.Max(0, pl.End-now), func() { s.onTaskComplete(e, id, pl.End) }),
		)
	}
}

// rescheduleAllExec recomputes completion timers from the preemptive plan's
// current EDF schedule. New admissions can only postpone completions, never
// rewrite the executed past (releases are never earlier than commit time),
// so cancelling and re-deriving all pending timers is safe.
func (s *Site) rescheduleAllExec() {
	for _, e := range s.exec {
		for _, c := range e.timers {
			c()
		}
		e.timers = nil
	}
	completion := make(map[string]map[int]float64)
	for _, frag := range s.plan.Reservations() {
		byTask := completion[frag.Job]
		if byTask == nil {
			byTask = make(map[int]float64)
			completion[frag.Job] = byTask
		}
		if frag.End > byTask[frag.Task] {
			byTask[frag.Task] = frag.End
		}
	}
	now := s.now()
	var lost []string
	for _, jobID := range determinism.SortedKeys(s.exec) {
		e := s.exec[jobID]
		for _, id := range determinism.SortedKeys(e.reservations) {
			ti := int(id)
			if e.completed[id] {
				continue
			}
			end, ok := completion[jobID][ti]
			if !ok {
				// The plan no longer holds this job's fragments (a stale
				// abort crossed a commit under faults). Tear the execution
				// down instead of crashing the cluster; on a faultless run
				// this is still reported as a violation.
				s.cluster.protocolDrop(s.id, fmt.Sprintf(
					"site %d lost fragments of %s/t%d", s.id, jobID, ti))
				if s.cluster.tracing() {
					s.cluster.event(s.id, jobID, EvExecAborted,
						fmt.Sprintf("t%d fragments missing", ti))
				}
				lost = append(lost, jobID)
				break
			}
			e.timers = append(e.timers,
				s.after(math.Max(0, end-now), func() { s.onTaskComplete(e, id, end) }))
		}
	}
	for _, jobID := range lost {
		s.cancelExecution(jobID)
		s.plan.CancelJob(jobID)
	}
}

// Wall-clock transports (live goroutines, TCP) fire same-deadline timers
// with runtime scheduling skew: a predecessor's completion timer and its
// successor's start timer share an instant, and either may win. The
// causality assertion therefore retries for up to one virtual time unit
// before declaring a violation on those transports; a genuinely missing
// input (a result that was never produced) persists past every retry and
// is still reported. The DES keeps the single zero-delay recheck: its
// event order is deterministic, so one hop resolves legitimate ties and
// anything else is a real protocol bug.
const (
	startRecheckDelay = 0.05
	startRecheckMax   = 20
)

// onTaskStart asserts that every predecessor's data is available when a
// reserved slot begins — the end-to-end check that ω over-estimation plus
// the adjusted windows make distributed execution causally sound. A result
// arriving at exactly the start instant is delivered first by re-checking
// after a zero-delay hop.
func (s *Site) onTaskStart(e *execJob, id dag.TaskID, tries int) {
	if e.cancelled || e.completed[id] {
		return
	}
	missing := s.missingInputs(e, id)
	if len(missing) == 0 {
		return
	}
	if tries == 0 {
		e.timers = append(e.timers,
			s.after(0, func() { s.onTaskStart(e, id, 1) }))
		return
	}
	if !s.cluster.virtualTime() && tries < startRecheckMax {
		e.timers = append(e.timers,
			s.after(startRecheckDelay, func() { s.onTaskStart(e, id, tries+1) }))
		return
	}
	s.cluster.recordViolation(fmt.Sprintf(
		"site %d: job %s task %d started at %v without inputs from %v",
		s.id, e.job.ID, id, s.now(), missing))
}

func (s *Site) missingInputs(e *execJob, id dag.TaskID) []dag.TaskID {
	var missing []dag.TaskID
	for _, p := range e.g.Predecessors(id) {
		if e.taskSites[p] == s.id {
			if !e.completed[p] {
				missing = append(missing, p)
			}
		} else if !e.arrived[[2]dag.TaskID{p, id}] {
			missing = append(missing, p)
		}
	}
	return missing
}

// onTaskComplete fires when a task's reserved slot (or EDF completion) ends:
// results are sent to the sites of successor tasks (§13) and completion is
// reported to the initiator.
func (s *Site) onTaskComplete(e *execJob, id dag.TaskID, at float64) {
	if e.cancelled || e.completed[id] {
		return
	}
	if s.plan.Preemptive() {
		// In preemptive mode the start assertion runs here (slots move).
		if missing := s.missingInputs(e, id); len(missing) > 0 {
			s.cluster.recordViolation(fmt.Sprintf(
				"site %d: job %s task %d completed at %v without inputs from %v",
				s.id, e.job.ID, id, s.now(), missing))
		}
	}
	e.completed[id] = true
	sent := make(map[graph.NodeID]bool)
	for _, succ := range e.g.Successors(id) {
		succ := succ
		dest := e.taskSites[succ]
		if dest == s.id {
			continue
		}
		vol := e.g.EdgeVolume(id, succ)
		th := s.cluster.cfg.Throughput
		if vol == 0 || th <= 0 {
			// Pure control dependency (or volumes disabled): one result
			// message serves every consumer on the destination site.
			if !sent[dest] {
				sent[dest] = true
				s.sendTo(dest, ResultMsg{Job: e.job.ID, Task: id, Bytes: s.cluster.cfg.ResultBytes})
			}
			continue
		}
		// §13 data volumes: each edge's transfer is serialized for
		// volume/throughput before it travels, and is addressed to its
		// consumer since volumes differ per edge.
		msg := ResultMsg{Job: e.job.ID, Task: id, For: succ,
			Bytes: s.cluster.cfg.ResultBytes + int(vol)}
		e.timers = append(e.timers, s.after(vol/th, func() {
			if !e.cancelled {
				s.sendTo(dest, msg)
			}
		}))
	}
	if e.job.Origin == s.id {
		s.cluster.recordTaskDone(e.job, id, at)
	} else {
		s.sendTo(e.job.Origin, DoneMsg{Job: e.job.ID, Task: id, At: at})
	}
}

// onResult records an incoming predecessor result (§13).
func (s *Site) onResult(m ResultMsg) {
	e, ok := s.exec[m.Job]
	if !ok || e.cancelled {
		return
	}
	if m.For != 0 {
		e.arrived[[2]dag.TaskID{m.Task, m.For}] = true
		return
	}
	// Broadcast result: serves every successor hosted on this site.
	for _, succ := range e.g.Successors(m.Task) {
		if e.taskSites[succ] == s.id {
			e.arrived[[2]dag.TaskID{m.Task, succ}] = true
		}
	}
}

// onDone records a remote task completion at the job's initiator.
func (s *Site) onDone(m DoneMsg) {
	if j := s.cluster.jobByID(m.Job); j != nil {
		s.cluster.recordTaskDone(j, m.Task, m.At)
	}
}

// cancelExecution tears down a job's execution state after an abort.
func (s *Site) cancelExecution(jobID string) {
	e, ok := s.exec[jobID]
	if !ok {
		return
	}
	e.cancelled = true
	for _, c := range e.timers {
		c()
	}
	delete(s.exec, jobID)
}
