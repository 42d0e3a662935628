package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/schedule"
)

// This file is the member's half of the protocol: answering enrollment,
// endorsing trial mappings, committing dispatched shares, and the lock
// lease that protects a member from a silent initiator.

// onEnroll handles an enrollment request at a member (§8): lock for the
// initiator and report surplus, power and the distance vector; defer if
// already locked.
func (s *Site) onEnroll(src graph.NodeID, m EnrollReq) {
	if s.locked() {
		s.deferWork(deferredWork{src: src, req: m})
		return
	}
	s.lock(m.Initiator, m.Job)
	if s.cluster.resilient() {
		s.startLockLease(m)
	}
	s.sendTo(m.Initiator, EnrollAck{
		Job:     m.Job,
		Member:  s.id,
		Surplus: s.plan.Surplus(s.now(), s.cluster.cfg.SurplusWindow),
		Power:   s.power,
		Dists:   s.distVec,
	})
}

// startLockLease arms the member-side backstop on resilient clusters: if the
// transaction has not released this lock by the time every fault-free
// protocol schedule would have (enrollment window plus the validation and
// commit round trips, with jitter headroom), the initiator is presumed dead
// and the lock is released unilaterally. The lease is deliberately generous
// — firing early only converts one admission into a conservative rejection,
// but it must still be bounded so faulty runs terminate.
func (s *Site) startLockLease(m EnrollReq) {
	jitter := 0.0
	if f := s.cluster.cfg.Faults; f != nil {
		jitter = f.MaxJitter
	}
	lease := 6*m.Window + 12*jitter + 4*s.cluster.cfg.EnrollSlack
	job, initiator := m.Job, m.Initiator
	s.lockLease = s.after(lease, func() { s.leaseExpired(job, initiator) })
}

// leaseExpired releases a lock whose transaction went silent: the member
// withdraws (drops its cached tickets) and resumes deferred work. Any later
// message of the withdrawn transaction hits the defensive lock-mismatch
// paths and is refused, which at worst turns the job into a rejection.
func (s *Site) leaseExpired(job string, initiator graph.NodeID) {
	s.lockLease = nil
	if !s.locked() || s.lockJob != job || s.lockedBy != initiator {
		return
	}
	if s.cluster.tracing() {
		s.cluster.event(s.id, job, EvLeaseExpired, fmt.Sprintf("initiator %d silent", initiator))
	}
	delete(s.memberTickets, job)
	s.unlock()
}

// endorsable computes which logical processors this site can endorse (§10)
// and caches the admission tickets for a later commit.
func (s *Site) endorsable(jobID string, windows [][]mapper.TaskWindow) []int {
	tickets := make([]*schedule.Ticket, len(windows))
	var ok []int
	for i, wins := range windows {
		reqs := s.reqScratch[:0]
		for _, w := range wins {
			reqs = append(reqs, schedule.Request{
				Job:      jobID,
				Task:     int(w.Task),
				Release:  w.Release,
				Deadline: w.Deadline,
				Duration: w.Complexity / s.power,
			})
		}
		s.reqScratch = reqs
		if tk, admitted := s.plan.Admit(s.now(), reqs); admitted {
			tickets[i] = tk
			ok = append(ok, i)
		}
	}
	s.memberTickets[jobID] = tickets
	return ok
}

// onValidate handles the mapping broadcast at a member (§10).
func (s *Site) onValidate(m ValidateReq) {
	if s.lockedBy != m.Initiator || s.lockJob != m.Job {
		// Defensive: the lock should always match (validation is only sent
		// to enrolled members), but an empty endorsement keeps the initiator
		// from waiting forever if it ever does not.
		s.sendTo(m.Initiator, ValidateAck{Job: m.Job, Member: s.id})
		return
	}
	end := s.endorsable(m.Job, m.Windows)
	s.sendTo(m.Initiator, ValidateAck{Job: m.Job, Member: s.id, Endorsable: end})
}

// commitShare commits this site's cached ticket for a logical processor and
// starts execution. It reports false when the validated slots are no longer
// honourable (time has passed them).
func (s *Site) commitShare(job *Job, proc int, g *dag.Graph, taskSites map[dag.TaskID]graph.NodeID) bool {
	tickets := s.memberTickets[job.ID]
	delete(s.memberTickets, job.ID)
	if proc >= len(tickets) || tickets[proc] == nil {
		return false
	}
	tk := tickets[proc]
	now := s.now()
	for _, r := range tk.Requests {
		// A slot that should already have started cannot be honoured; the
		// release padding (§13) makes this rare, not impossible.
		if r.Release < now-1e-9 && !s.plan.Preemptive() {
			if pl := placementFor(tk, r.Task); pl != nil && pl.Start < now-1e-9 {
				return false
			}
		}
	}
	if err := s.plan.Commit(tk); err != nil {
		return false
	}
	s.beginExecution(job, taskSites, tk)
	return true
}

func placementFor(tk *schedule.Ticket, task int) *schedule.Reservation {
	for i := range tk.Placements {
		if tk.Placements[i].Task == task {
			return &tk.Placements[i]
		}
	}
	return nil
}

// onCommit handles the permutation at an ACS member (§11): endorse the
// assigned logical processor (or be released), then unlock — "the lock of j
// is immediately released after the insertion of all tasks of Ti".
func (s *Site) onCommit(m CommitMsg) {
	if s.lockedBy != m.Initiator || s.lockJob != m.Job {
		// Defensive: refuse rather than stay silent so the initiator's
		// commit phase always resolves.
		if m.Proc >= 0 {
			s.sendTo(m.Initiator, CommitAck{Job: m.Job, Member: s.id, OK: false})
		}
		return
	}
	if m.Proc < 0 {
		delete(s.memberTickets, m.Job)
		s.unlock()
		return
	}
	job := s.cluster.jobByID(m.Job)
	if job == nil && s.cluster.sites[m.Initiator] == nil && m.Graph != nil {
		// The initiator is hosted elsewhere: its record lives in another
		// process, so reconstruct the member's view from the message itself.
		job = s.cluster.adoptRemoteJob(m.Job, m.Graph, m.Initiator)
	}
	if job == nil {
		// The job record is gone (possible only under injected faults, when
		// messages survive their transaction). Refuse instead of crashing.
		s.cluster.protocolDrop(s.id, fmt.Sprintf(
			"site %d: commit for unknown job %s", s.id, m.Job))
		s.sendTo(m.Initiator, CommitAck{Job: m.Job, Member: s.id, OK: false})
		s.unlock()
		return
	}
	ok := s.commitShare(job, m.Proc, m.Graph, m.TaskSites)
	s.sendTo(m.Initiator, CommitAck{Job: m.Job, Member: s.id, OK: ok})
	s.unlock()
}

// onUnlock releases a member (rejection path) or aborts a committed share.
// On faulty clusters aborts are acknowledged so the initiator can stop
// retransmitting; the handler is idempotent, so duplicates are harmless.
func (s *Site) onUnlock(m UnlockMsg) {
	if m.Abort {
		s.cancelExecution(m.Job)
		s.plan.CancelJob(m.Job)
		if s.cluster.resilient() {
			s.sendTo(m.From, UnlockAck{Job: m.Job, Member: s.id})
		}
	}
	delete(s.memberTickets, m.Job)
	if s.locked() && s.lockJob == m.Job {
		s.unlock()
	}
}
