package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/core/txn"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/matching"
)

// This file is the initiator's half of the protocol: it drives one txn
// record per distributed job through enroll → validate → commit, opening
// each phase's wait after its sends and moving on when the wait completes
// or expires (§8–§11). Member-side handlers live in member.go, execution
// in exec.go.

// ---------------------------------------------------------------------------
// Enrollment (§8)

// startTxn opens a transaction: the sphere policy's precomputed enrollment
// fan-out (cached per table adoption, see adoptTable) is locked-by-request
// and the window timer is armed.
func (s *Site) startTxn(job *Job) {
	expected := s.enrollSet
	s.cluster.record(Event{Site: s.id, job: job, Kind: EvEnroll, N: len(expected)})
	s.lock(s.id, job.ID)
	t := &activeTxn{job: job}
	s.txns[job.ID] = t
	timeout := 2*s.enrollDiam + s.cluster.cfg.EnrollSlack
	s.sendAll(expected, EnrollReq{Job: job.ID, Initiator: s.id, Window: timeout})
	t.Enroll.Open(expected, s.after(timeout, func() {
		if missing := t.Enroll.Expire(); missing != nil {
			s.enrollDone(t, missing)
		}
	}))
}

// onEnrollAck collects members at the initiator. An ack the enrollment
// wait does not count — a straggler deferred past the window, or one for
// a finished transaction — gets an immediate unlock so the member is not
// stranded.
func (s *Site) onEnrollAck(m EnrollAck) {
	if t, ok := s.txns[m.Job]; ok {
		if counted, complete := t.Enroll.Answer(m.Member, txn.Enrollment{Surplus: m.Surplus, Power: m.Power, Dists: m.Dists}); counted {
			if complete {
				s.enrollDone(t, nil)
			}
			return
		}
	}
	s.sendTo(m.Member, UnlockMsg{Job: m.Job, From: s.id})
}

// enrollDone closes the enrollment window: the ACS is fixed (§8) and the
// mapper runs (§9, §12). It is reached once, from whichever closed the
// wait: the final EnrollAck, or the expiry timer with the members that
// never answered.
func (s *Site) enrollDone(t *activeTxn, missing []graph.NodeID) {
	job := t.job

	// On a resilient cluster an expected member may be locked for us while
	// its ack was lost in transit: release the stragglers eagerly (their
	// lock lease is the backstop if this unlock is lost too). Faultless
	// clusters skip this — a missing ack there only means the member
	// deferred, and the existing straggler path unlocks it when the late
	// ack arrives.
	if s.cluster.resilient() {
		s.sendAll(missing, UnlockMsg{Job: job.ID, From: s.id})
	}

	for i, m := range t.Enroll.Members() {
		if _, ok := t.Enroll.Got(i); ok {
			t.ACS = append(t.ACS, m)
		}
	}
	if len(t.ACS) == 0 {
		// Nobody enrolled before the window closed (§8): reject without
		// attempting an initiator-only mapping — the local test already
		// failed, and the paper distributes or rejects.
		s.cluster.record(Event{Site: s.id, job: job, Kind: EvACSFixed}) // N=0: no ACS formed
		s.finishTxn(t, Rejected, StageEmptyACS)
		return
	}

	slices.Sort(t.ACS)
	s.cluster.record(Event{Site: s.id, job: job, Kind: EvACSFixed, N: len(t.ACS) + 1}) // initiator included

	omega := s.acsDiameter(t)
	t.Omega = omega
	procs := s.acsProcs(t)
	rEff := s.now() + s.cluster.cfg.ReleasePadFactor*omega
	tm, err := mapper.Build(job.Graph, procs, omega, rEff, job.AbsDeadline, mapper.Options{
		Heuristic:  s.cluster.cfg.Policies.Mapper,
		LaxityMode: s.cluster.cfg.Policies.Dispatch,
		Throughput: s.cluster.cfg.Throughput,
	})
	if err != nil {
		s.finishTxn(t, Rejected, StageMapper)
		return
	}
	t.TM = tm
	s.cluster.record(Event{Site: s.id, job: job, Kind: EvMapped,
		N: tm.NumProcs(), M: int(tm.Case), T: tm.Makespan, U: tm.IdealMakespan})

	// Broadcast M in the ACS (§10); endorse locally in place.
	windows := make([][]mapper.TaskWindow, tm.NumProcs())
	for i := range windows {
		windows[i] = tm.Tasks(job.Graph, i)
	}
	s.sendAll(t.ACS, ValidateReq{Job: job.ID, Initiator: s.id, NumProcs: tm.NumProcs(), Windows: windows})
	t.Own = s.endorsable(job.ID, windows)
	// Validation timeout, mirroring the enrollment window: the round trip
	// inside the ACS is bounded by 2ω, so on a faultless cluster this timer
	// is always cancelled; a lost ValidateReq or ack turns into a reject
	// instead of a wedged initiator.
	t.Validate.Open(t.ACS, s.after(2*omega+s.cluster.cfg.EnrollSlack, func() { s.validateTimeout(t) }))
}

// validateTimeout closes the validation phase when members went silent:
// missing answers count as empty endorsements and the coupling runs on what
// arrived, which typically rejects the job and unlocks everyone.
func (s *Site) validateTimeout(t *activeTxn) {
	missing := t.Validate.Expire()
	if missing == nil {
		return
	}
	s.cluster.record(Event{Site: s.id, job: t.job, Kind: EvPhaseTimeout, Stage: StageValidateTimeout, N: len(missing)})
	s.finishValidation(t)
}

// acsDiameter computes ω: the largest pairwise known delay among ACS
// members (initiator included), from the initiator's own table plus the
// enrollees' distance vectors. The paper leaves open how the initiator
// learns ω; with the vectors it is exact for the ACS, not bounded by the
// whole sphere's diameter. Under hier routing it stays exact because an ACS
// never leaves the initiator's region, where every table is exact.
func (s *Site) acsDiameter(t *activeTxn) float64 {
	var omega float64
	consider := func(d float64) {
		if !math.IsInf(d, 1) && d > omega {
			omega = d
		}
	}
	for i, m := range t.Enroll.Members() {
		a, ok := t.Enroll.Got(i)
		if !ok {
			continue
		}
		consider(s.table.Dist(m))
		for _, e := range a.Dists {
			if _, in := slices.BinarySearch(t.ACS, e.Dest); in || e.Dest == s.id {
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
	selfWindow := SurplusWindow
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
	for i, m := range t.Enroll.Members() {
		a, ok := t.Enroll.Got(i)
		if !ok {
			continue
		}
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
	if t, ok := s.txns[m.Job]; ok {
		if _, complete := t.Validate.Answer(m.Member, m.Endorsable); complete {
			s.finishValidation(t)
		}
	}
}

// finishValidation computes the maximum coupling between ACS members and
// logical processors (§10); a perfect matching on the processors yields the
// permutation that executes the job (§11).
func (s *Site) finishValidation(t *activeTxn) {
	// The coupling's sites are the ACS with the initiator at its place in
	// ascending order, so the other members come in ACS (= Validate) order.
	self, _ := slices.BinarySearch(t.ACS, s.id)
	members := slices.Insert(slices.Clone(t.ACS), self, s.id)

	b := matching.NewBipartite(len(members), t.TM.NumProcs())
	next := 0
	for li := range members {
		procs := t.Own
		if li != self {
			procs, _ = t.Validate.Got(next)
			next++
		}
		for _, proc := range procs {
			if proc >= 0 && proc < t.TM.NumProcs() {
				b.AddEdge(li, proc)
			}
		}
	}
	res := b.MaximumMatching()
	s.cluster.record(Event{Site: s.id, job: t.job, Kind: EvValidated, N: res.Size, M: t.TM.NumProcs()})
	if !res.PerfectOnRight() {
		s.finishTxn(t, Rejected, StageMatching)
		return
	}

	// assignment[proc] indexes the member that executes logical processor
	// proc; res.MatchL[li] is member li's processor, -1 for one that only
	// releases.
	assignment := res.RightAssignment()
	taskSites := make([]graph.NodeID, len(t.TM.Assign))
	for i, a := range t.TM.Assign {
		taskSites[i] = members[assignment[a.Proc]]
	}

	// The initiator endorses its share first: if even the local insertion
	// fails there is no point dispatching code. From here on the job can
	// receive completions, until it is rejected or Done.
	s.ownJobs[t.job.ID] = t.job
	selfOK := true
	if proc := res.MatchL[self]; proc >= 0 {
		selfOK = s.commitShare(CommitMsg{Job: t.job.ID, Initiator: s.id, Proc: proc, Graph: t.job.Graph, TaskSites: taskSites})
	} else {
		delete(s.memberTickets, t.job.ID)
	}
	if !selfOK {
		s.finishTxn(t, Rejected, StageCommit)
		return
	}

	var executing []graph.NodeID
	for li, m := range members {
		if li == self {
			continue
		}
		proc := res.MatchL[li]
		msg := CommitMsg{Job: t.job.ID, Initiator: s.id, Proc: proc}
		if proc >= 0 {
			n := len(t.TM.Tasks(t.job.Graph, proc))
			msg.Graph = t.job.Graph
			msg.TaskSites = taskSites
			msg.CodeBytes = n * codeBytesPerTask
			executing = append(executing, m)
		}
		s.sendTo(m, msg)
	}
	t.CommitsSent = true
	s.cluster.record(Event{Site: s.id, job: t.job, Kind: EvCommit, N: len(executing) + 1})
	if len(executing) == 0 {
		s.finishTxn(t, AcceptedDistributed, "")
		return
	}
	// Commit timeout, mirroring the enrollment window: a lost commit or
	// CommitAck resolves the transaction as a failed commit (abort
	// everywhere) instead of wedging the initiator's lock forever.
	t.Commit.Open(executing, s.after(2*t.Omega+s.cluster.cfg.EnrollSlack, func() { s.commitTimeout(t) }))
}

// ---------------------------------------------------------------------------
// Commit resolution (§11)

// commitTimeout resolves the commit phase when executing members went
// silent. The silent members may or may not have committed their shares;
// aborting everywhere is the only safe resolution, and on faulty clusters
// the abort unlocks are retransmitted until acknowledged.
func (s *Site) commitTimeout(t *activeTxn) {
	missing := t.Commit.Expire()
	if missing == nil {
		return
	}
	s.cluster.record(Event{Site: s.id, job: t.job, Kind: EvPhaseTimeout, Stage: StageCommitTimeout, N: len(missing)})
	s.commitResolved(t, StageCommitTimeout)
}

// onCommitAck finalizes the transaction at the initiator once every
// executing member confirmed (or refused) its insertion.
func (s *Site) onCommitAck(m CommitAck) {
	if t, ok := s.txns[m.Job]; ok {
		if _, complete := t.Commit.Answer(m.Member, m.OK); complete {
			s.commitResolved(t, StageCommit)
		}
	}
}

// commitResolved decides the job once the commit wait closed; a failed
// commit is rejected at stage.
func (s *Site) commitResolved(t *activeTxn, stage RejectStage) {
	if !t.CommitFailed() {
		s.finishTxn(t, AcceptedDistributed, "")
		return
	}
	// Abort everywhere: members cancel any reservations of the job.
	s.sendAll(t.ACS, UnlockMsg{Job: t.job.ID, From: s.id, Abort: true})
	if s.cluster.resilient() {
		// Only the executing members can hold reservations, so only they
		// must acknowledge; a release-only member's lock lease is backstop
		// enough.
		ar := &txn.AbortRetry{}
		s.aborts[t.job.ID] = ar
		s.awaitUnlockAcks(t.job.ID, ar, t.Commit.Members())
	}
	s.cancelExecution(t.job.ID)
	s.plan.CancelJob(t.job.ID)
	s.finishTxn(t, Rejected, stage)
}

// awaitUnlockAcks opens one retransmission round: a wait on the members
// an abort unlock was just sent to.
func (s *Site) awaitUnlockAcks(job string, ar *txn.AbortRetry, members []graph.NodeID) {
	interval := 4*s.sphereDiam + s.cluster.cfg.EnrollSlack
	if f := s.cluster.cfg.Faults; f != nil {
		interval += 2 * f.MaxJitter
	}
	ar.Open(members, s.after(interval, func() { s.abortRetryFire(job, ar) }))
}

// abortRetryFire retransmits the abort unlock to members that have not
// acknowledged it. Retries are bounded so runs with permanently dead
// members still terminate; giving up is recorded.
func (s *Site) abortRetryFire(job string, ar *txn.AbortRetry) {
	missing := ar.Expire()
	if missing == nil {
		delete(s.aborts, job)
		return
	}
	retry := ar.NextTry()
	s.cluster.record(Event{Site: s.id, Job: job, Kind: EvAbortRetry, N: len(missing), M: ar.Tries})
	if !retry {
		delete(s.aborts, job)
		return
	}
	s.sendAll(missing, UnlockMsg{Job: job, From: s.id, Abort: true})
	s.awaitUnlockAcks(job, ar, missing)
}

// onUnlockAck counts one member's acknowledgement of an abort unlock.
func (s *Site) onUnlockAck(m UnlockAck) {
	if ar := s.aborts[m.Job]; ar != nil {
		if _, complete := ar.Answer(m.Member, struct{}{}); complete {
			delete(s.aborts, m.Job)
		}
	}
}

// finishTxn records the decision, unlocks the ACS when the members have not
// yet received their commit/release messages, unlocks the initiator, and
// replays deferred work.
func (s *Site) finishTxn(t *activeTxn, outcome Outcome, stage RejectStage) {
	delete(s.txns, t.job.ID)
	if outcome == Rejected {
		delete(s.ownJobs, t.job.ID)
	}
	if outcome == Rejected && !t.CommitsSent {
		// "the DAG is rejected and ACS members are unlocked" (§10). This
		// also covers a commit that failed at the initiator itself before
		// anything was dispatched.
		s.sendAll(t.ACS, UnlockMsg{Job: t.job.ID, From: s.id})
		delete(s.memberTickets, t.job.ID)
	}
	s.cluster.record(Event{Site: s.id, job: t.job, Kind: EvDecided, Outcome: outcome, Stage: stage})
	s.unlock()
}
