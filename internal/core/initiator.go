package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core/txn"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/matching"
	"repro/internal/simnet"
)

// This file is the initiator's half of the protocol: it drives one txn
// state machine per distributed job through enroll → validate → commit,
// translating each guarded transition into the sends, mapper invocations
// and plan commits of §8–§11. Member-side handlers live in member.go,
// execution in exec.go.

// ---------------------------------------------------------------------------
// Enrollment (§8)

// startTxn opens a transaction: the sphere policy's precomputed enrollment
// fan-out (cached per table adoption, see adoptTable) is locked-by-request
// and the window timer is armed.
func (s *Site) startTxn(job *Job) {
	expected := s.enrollSet
	if s.cluster.tracing() {
		s.cluster.event(s.id, job.ID, EvEnroll, fmt.Sprintf("pcs=%d", len(expected)))
	}
	s.lock(s.id, job.ID)
	t := &activeTxn{Txn: txn.New(job.ID, expected), job: job}
	s.txns[job.ID] = t
	timeout := 2*s.enrollDiam + s.cluster.cfg.EnrollSlack
	s.sendAll(expected, EnrollReq{Job: job.ID, Initiator: s.id, Window: timeout})
	t.SetTimer(s.after(timeout, func() { s.enrollDone(t) }))
}

// onEnrollAck collects members at the initiator. Acks for finished
// transactions (stragglers that were deferred past the enrollment window)
// get an immediate unlock so the member is not stranded.
func (s *Site) onEnrollAck(m EnrollAck) {
	t, ok := s.txns[m.Job]
	if !ok || t.Phase() != txn.Enrolling {
		s.sendTo(m.Member, UnlockMsg{Job: m.Job, From: s.id})
		return
	}
	if t.RecordEnrollment(m.Member, txn.Enrollment{Surplus: m.Surplus, Power: m.Power, Dists: m.Dists}) {
		// Cancel before closing the window: if the expiry timer fires at
		// the same instant as this ack (or has already been queued on the
		// live transport), the nil-ed handle plus enrollDone's phase guard
		// keep the window from being closed twice.
		t.StopTimer()
		s.enrollDone(t)
	}
}

// enrollDone closes the enrollment window: the ACS is fixed (§8) and the
// mapper runs (§9, §12). It is reachable from both the final EnrollAck and
// the expiry timer; the txn phase guard makes the second entry a no-op
// whichever path wins the race.
func (s *Site) enrollDone(t *activeTxn) {
	if !t.CloseEnrollment() {
		return
	}
	job := t.job

	// On a resilient cluster an expected member may be locked for us while
	// its ack was lost in transit: release the stragglers eagerly (their
	// lock lease is the backstop if this unlock is lost too). Faultless
	// clusters skip this — a missing ack there only means the member
	// deferred, and the existing straggler path unlocks it when the late
	// ack arrives.
	if s.cluster.resilient() && t.Enrollments() < len(t.Expected) {
		s.sendAll(t.MissingEnrollments(), UnlockMsg{Job: job.ID, From: s.id})
	}

	if t.Enrollments() == 0 {
		// Nobody enrolled before the window closed (§8). On a hierarchical
		// cluster the sphere was region-local, so before rejecting the
		// initiator escalates once: the window reopens toward the adjacent
		// regions' landmarks — the ACS-underflow widening of the regional
		// commit sphere. Flat clusters (and a second underflow) reject
		// without attempting an initiator-only mapping — the local test
		// already failed, and the paper distributes or rejects.
		if s.escalateEnrollment(t) {
			return
		}
		s.cluster.event(s.id, job.ID, EvACSFixed, "acs=1 (nobody enrolled)")
		s.finishTxn(t, Rejected, StageEmptyACS)
		return
	}

	acs := t.FixACS()
	s.cluster.noteJobACS(job, len(acs)+1) // initiator included
	if s.cluster.tracing() {
		s.cluster.event(s.id, job.ID, EvACSFixed, fmt.Sprintf("acs=%d", job.ACSSize))
	}

	omega := s.acsDiameter(t)
	t.Omega = omega
	procs := s.acsProcs(t)
	rEff := s.now() + s.cluster.cfg.ReleasePadFactor*omega
	tm, err := mapper.Build(job.Graph, procs, omega, rEff, job.AbsDeadline, mapper.Options{
		Heuristic:  s.mapperPol.Heuristic(),
		LaxityMode: s.dispatchPol.LaxityMode(),
		Throughput: s.cluster.cfg.Throughput,
	})
	if err != nil {
		s.finishTxn(t, Rejected, StageMapper)
		return
	}
	t.TM = tm
	s.cluster.noteJobProcs(job, tm.NumProcs())
	if s.cluster.tracing() {
		s.cluster.event(s.id, job.ID, EvMapped,
			fmt.Sprintf("procs=%d case=%s M=%.3g M*=%.3g", tm.NumProcs(), tm.Case, tm.Makespan, tm.IdealMakespan))
	}

	// Broadcast M in the ACS (§10); endorse locally in place.
	windows := make([][]mapper.TaskWindow, tm.NumProcs())
	for i := range windows {
		windows[i] = tm.Tasks(job.Graph, i)
	}
	t.BeginValidation()
	// Boxed once for the whole broadcast, like sendAll does.
	var req simnet.Payload = ValidateReq{Job: job.ID, Initiator: s.id, NumProcs: tm.NumProcs(), Windows: windows}
	for _, m := range acs {
		t.ExpectEndorsement(m)
		s.sendTo(m, req)
	}
	t.SetEndorsement(s.id, s.endorsable(job.ID, windows))
	if t.Awaiting() == 0 {
		s.finishValidation(t)
		return
	}
	// Validation timeout, mirroring the enrollment window: the round trip
	// inside the ACS is bounded by 2ω, so on a faultless cluster this timer
	// is always cancelled; a lost ValidateReq or ack turns into a reject
	// instead of a wedged initiator.
	t.SetTimer(s.after(2*omega+s.cluster.cfg.EnrollSlack, func() { s.validateTimeout(t) }))
}

// escalateEnrollment reopens an enrollment window that closed empty, once,
// toward the adjacent regions' landmarks (hierarchical clusters only): the
// regional commit sphere underflowed, so the transaction widens its fan-out
// beyond the region border — to exactly the sites the landmark vector can
// reach deterministically — instead of rejecting. Returns false when there
// is nothing to escalate to (flat cluster, already escalated, or no
// reachable adjacent landmark), leaving the reject path to the caller.
func (s *Site) escalateEnrollment(t *activeTxn) bool {
	if s.hierTable == nil || t.Escalated {
		return false
	}
	already := make(map[graph.NodeID]bool, len(t.Expected))
	for _, m := range t.Expected {
		already[m] = true
	}
	var extra []graph.NodeID
	var diam float64
	for _, lm := range s.hierTable.EscalationLandmarks() {
		if lm == s.id || already[lm] {
			continue
		}
		extra = append(extra, lm)
		if d := s.table.Dist(lm); !math.IsInf(d, 1) && d > diam {
			diam = d
		}
	}
	if len(extra) == 0 {
		return false
	}
	t.Reopen(extra)
	timeout := 2*diam + s.cluster.cfg.EnrollSlack
	if s.cluster.tracing() {
		s.cluster.event(s.id, t.job.ID, EvEscalate,
			fmt.Sprintf("landmarks=%d window=%.3g", len(extra), timeout))
	}
	s.sendAll(extra, EnrollReq{Job: t.job.ID, Initiator: s.id, Window: timeout})
	t.SetTimer(s.after(timeout, func() { s.enrollDone(t) }))
	return true
}

// validateTimeout closes the validation phase when members went silent:
// missing answers count as empty endorsements and the coupling runs on what
// arrived, which typically rejects the job and unlocks everyone.
func (s *Site) validateTimeout(t *activeTxn) {
	missing, fired := t.TimeoutValidation()
	if !fired {
		return
	}
	if s.cluster.tracing() {
		s.cluster.event(s.id, t.job.ID, EvPhaseTimeout,
			fmt.Sprintf("validate missing=%d", missing))
	}
	s.finishValidation(t)
}

// acsDiameter computes ω: the largest pairwise known delay among ACS
// members (initiator included), from the initiator's own table plus the
// enrollees' distance vectors (DESIGN.md §6.3).
func (s *Site) acsDiameter(t *activeTxn) float64 {
	members := append([]graph.NodeID{s.id}, t.ACS...)
	inACS := make(map[graph.NodeID]bool, len(members))
	for _, m := range members {
		inACS[m] = true
	}
	var omega float64
	consider := func(d float64) {
		if !math.IsInf(d, 1) && d > omega {
			omega = d
		}
	}
	for _, m := range t.ACS {
		consider(s.table.Dist(m))
		for _, e := range t.Enrollment(m).Dists {
			if inACS[e.Dest] {
				consider(e.Dist)
			}
		}
	}
	return omega
}

// acsProcs builds the mapper input: ACS members with surpluses in
// descending order (§9). The initiator contributes its own current surplus;
// with UseLocalKnowledge it measures itself over the job's actual window
// (§13), which its own plan lets it do exactly. Ordering uses the *raw*
// surpluses: the clamp that keeps the mapper's domain sane collapses every
// saturated site onto the same floor, and sorting the clamped values would
// reduce the §9 surplus ranking to a site-ID lottery among exactly the
// sites where the ranking matters most.
func (s *Site) acsProcs(t *activeTxn) []mapper.ProcInfo {
	selfWindow := s.cluster.cfg.SurplusWindow
	if s.cluster.cfg.UseLocalKnowledge {
		if w := t.job.AbsDeadline - s.now(); w > 1e-6 {
			selfWindow = w
		}
	}
	type rankedProc struct {
		info mapper.ProcInfo
		raw  float64
	}
	selfRaw := s.plan.Surplus(s.now(), selfWindow)
	ranked := make([]rankedProc, 0, len(t.ACS)+1)
	ranked = append(ranked, rankedProc{
		info: mapper.ProcInfo{Site: s.id, Surplus: clampSurplus(selfRaw), Power: s.power},
		raw:  selfRaw,
	})
	for _, m := range t.ACS {
		a := t.Enrollment(m)
		ranked = append(ranked, rankedProc{
			info: mapper.ProcInfo{Site: m, Surplus: clampSurplus(a.Surplus), Power: a.Power},
			raw:  a.Surplus,
		})
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].raw != ranked[j].raw {
			return ranked[i].raw > ranked[j].raw
		}
		return ranked[i].info.Site < ranked[j].info.Site
	})
	procs := make([]mapper.ProcInfo, len(ranked))
	for i, r := range ranked {
		procs[i] = r.info
	}
	return procs
}

// clampSurplus keeps a measured surplus inside the mapper's (0, 1] domain:
// a fully booked site still has an arbitrarily small surplus, not zero.
func clampSurplus(v float64) float64 {
	const floor = 1e-3
	if v < floor {
		return floor
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Validation (§10)

// onValidateAck collects endorsements at the initiator; when all ACS members
// have answered it computes the maximum coupling (§10).
func (s *Site) onValidateAck(m ValidateAck) {
	t, ok := s.txns[m.Job]
	if !ok {
		return
	}
	counted, complete := t.RecordEndorsement(m.Member, m.Endorsable)
	if !counted {
		return
	}
	if complete {
		t.StopTimer()
		s.finishValidation(t)
	}
}

// finishValidation computes the maximum coupling between ACS members and
// logical processors (§10); a perfect matching on the processors yields the
// permutation that executes the job (§11).
func (s *Site) finishValidation(t *activeTxn) {
	members := append([]graph.NodeID{s.id}, t.ACS...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	b := matching.NewBipartite(len(members), t.TM.NumProcs())
	for li, m := range members {
		for _, proc := range t.Endorse[m] {
			if proc >= 0 && proc < t.TM.NumProcs() {
				b.AddEdge(li, proc)
			}
		}
	}
	res := b.MaximumMatching()
	if s.cluster.tracing() {
		s.cluster.event(s.id, t.job.ID, EvValidated,
			fmt.Sprintf("coupling=%d/%d", res.Size, t.TM.NumProcs()))
	}
	if !res.PerfectOnRight() {
		s.finishTxn(t, Rejected, StageMatching)
		return
	}

	t.BeginCommit()
	t.Assignment = make(map[int]graph.NodeID, t.TM.NumProcs())
	procOf := make(map[graph.NodeID]int, len(members))
	for _, m := range members {
		procOf[m] = -1
	}
	for proc, li := range res.RightAssignment() {
		t.Assignment[proc] = members[li]
		procOf[members[li]] = proc
	}
	taskSites := make(map[dag.TaskID]graph.NodeID, t.job.Graph.Len())
	for _, id := range t.job.Graph.TaskIDs() {
		taskSites[id] = t.Assignment[t.TM.Assign[id].Proc]
	}

	// The initiator endorses its share first: if even the local insertion
	// fails there is no point dispatching code.
	t.SelfOK = true
	if myProc := procOf[s.id]; myProc >= 0 {
		t.SelfOK = s.commitShare(t.job, myProc, t.job.Graph, taskSites)
	} else {
		delete(s.memberTickets, t.job.ID)
	}
	if !t.SelfOK {
		s.finishTxn(t, Rejected, StageCommit)
		return
	}

	for _, m := range t.ACS {
		proc := procOf[m]
		msg := CommitMsg{Job: t.job.ID, Initiator: s.id, Proc: proc}
		if proc >= 0 {
			n := len(t.TM.Tasks(t.job.Graph, proc))
			msg.Graph = t.job.Graph
			msg.TaskSites = taskSites
			msg.CodeBytes = n * s.cluster.cfg.CodeBytesPerTask
			t.ExpectCommitAck(m)
		}
		s.sendTo(m, msg)
	}
	t.CommitsSent = true
	if s.cluster.tracing() {
		s.cluster.event(s.id, t.job.ID, EvCommit, fmt.Sprintf("executing=%d", t.CommitsOutstanding()+1))
	}
	if t.CommitsOutstanding() == 0 {
		s.commitResolved(t)
		return
	}
	// Commit timeout, mirroring the enrollment window: a lost commit or
	// CommitAck resolves the transaction as a failed commit (abort
	// everywhere) instead of wedging the initiator's lock forever.
	t.SetTimer(s.after(2*t.Omega+s.cluster.cfg.EnrollSlack, func() { s.commitTimeout(t) }))
}

// ---------------------------------------------------------------------------
// Commit resolution (§11)

// commitTimeout resolves the commit phase when executing members went
// silent. The silent members may or may not have committed their shares;
// aborting everywhere is the only safe resolution, and on faulty clusters
// the abort unlocks are retransmitted until acknowledged.
func (s *Site) commitTimeout(t *activeTxn) {
	missing, fired := t.TimeoutCommit()
	if !fired {
		return
	}
	if s.cluster.tracing() {
		s.cluster.event(s.id, t.job.ID, EvPhaseTimeout,
			fmt.Sprintf("commit missing=%d", missing))
	}
	s.commitResolved(t)
}

// onCommitAck finalizes the transaction at the initiator once every
// executing member confirmed (or refused) its insertion.
func (s *Site) onCommitAck(m CommitAck) {
	t, ok := s.txns[m.Job]
	if !ok {
		return
	}
	counted, complete := t.RecordCommitAck(m.Member, m.OK)
	if !counted {
		return
	}
	if complete {
		t.StopTimer()
		s.commitResolved(t)
	}
}

func (s *Site) commitResolved(t *activeTxn) {
	if t.CommitFail {
		// Abort everywhere: members cancel any reservations of the job.
		s.sendAll(t.ACS, UnlockMsg{Job: t.job.ID, From: s.id, Abort: true})
		if s.cluster.resilient() {
			s.trackAbort(t)
		}
		s.cancelExecution(t.job.ID)
		s.plan.CancelJob(t.job.ID)
		stage := StageCommit
		if t.ComTimedOut {
			stage = StageCommitTimeout
		}
		s.finishTxn(t, Rejected, stage)
		return
	}
	s.finishTxn(t, AcceptedDistributed, "")
}

// trackAbort records which executing members must acknowledge the abort
// unlock just sent, and arms the retransmission timer. Only members that
// were dispatched a real share can hold reservations; release-only members
// need no acknowledgement (their lock lease is backstop enough).
func (s *Site) trackAbort(t *activeTxn) {
	var executing []graph.NodeID
	for _, m := range t.ACS {
		if t.Assignment != nil {
			//lint:allow mapiter -- membership test: appends at most once per ACS member then breaks, so iteration order cannot reach the output
			for _, site := range t.Assignment {
				if site == m {
					executing = append(executing, m)
					break
				}
			}
		}
	}
	if len(executing) == 0 {
		return
	}
	ar := txn.NewAbortRetry(executing)
	s.aborts[t.job.ID] = ar
	s.scheduleAbortRetry(t.job.ID, ar)
}

func (s *Site) scheduleAbortRetry(job string, ar *txn.AbortRetry) {
	interval := 4*s.sphereDiam + s.cluster.cfg.EnrollSlack
	if f := s.cluster.cfg.Faults; f != nil {
		interval += 2 * f.MaxJitter
	}
	ar.Arm(s.after(interval, func() { s.abortRetryFire(job, ar) }))
}

// abortRetryFire retransmits the abort unlock to members that have not
// acknowledged it. Retries are bounded so runs with permanently dead
// members still terminate; giving up is traced.
func (s *Site) abortRetryFire(job string, ar *txn.AbortRetry) {
	ar.TimerFired()
	if len(ar.Members) == 0 {
		delete(s.aborts, job)
		return
	}
	if !ar.NextTry() {
		if s.cluster.tracing() {
			s.cluster.event(s.id, job, EvAbortRetry,
				fmt.Sprintf("gave up on %d members after %d tries", len(ar.Members), txn.MaxAbortTries))
		}
		delete(s.aborts, job)
		return
	}
	if s.cluster.tracing() {
		s.cluster.event(s.id, job, EvAbortRetry,
			fmt.Sprintf("try %d to %d members", ar.Tries, len(ar.Members)))
	}
	s.sendAll(ar.Members, UnlockMsg{Job: job, From: s.id, Abort: true})
	s.scheduleAbortRetry(job, ar)
}

// onUnlockAck clears one member from an abort's retransmission set.
func (s *Site) onUnlockAck(m UnlockAck) {
	ar := s.aborts[m.Job]
	if ar == nil {
		return
	}
	if ar.Ack(m.Member) {
		ar.Stop()
		delete(s.aborts, m.Job)
	}
}

// finishTxn records the decision, unlocks the ACS when the members have not
// yet received their commit/release messages, unlocks the initiator, and
// replays deferred work.
func (s *Site) finishTxn(t *activeTxn, outcome Outcome, stage RejectStage) {
	if !t.Finish() {
		return
	}
	delete(s.txns, t.job.ID)
	if outcome == Rejected && !t.CommitsSent {
		// "the DAG is rejected and ACS members are unlocked" (§10). This
		// also covers a commit that failed at the initiator itself before
		// anything was dispatched.
		s.sendAll(t.ACS, UnlockMsg{Job: t.job.ID, From: s.id})
		delete(s.memberTickets, t.job.ID)
	}
	s.cluster.recordDecision(t.job, outcome, stage, s.now())
	s.unlock()
}
