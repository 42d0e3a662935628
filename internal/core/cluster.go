package core

import (
	"fmt"
	"sync"

	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/simnet"
)

// Cluster is a network of RTDS sites on a deterministic discrete-event
// transport. Construction runs the PCS bootstrap (§7) to completion; jobs
// are then submitted at times relative to the post-bootstrap epoch.
type Cluster struct {
	cfg    Config
	mcfg   membership.Config // resolved membership configuration
	topo   *graph.Graph
	lay    *hier.Layout    // region/landmark structure; nil on flat clusters
	engine *sim.Engine     // serial kernel; nil on parallel and live clusters
	par    *par.Engine     // parallel kernel; nil on serial and live clusters
	ptr    *simnet.PartDES // set iff par is (for per-site clock reads)
	tr     simnet.Transport
	sites  []*Site

	epoch             float64 // virtual time when bootstrap finished
	bootstrapMessages int64
	bootstrapBytes    int64

	// nodeMode marks a single-site cluster (see Node): c.sites holds one
	// non-nil entry, peers live in other processes, and member-side state
	// for remotely-initiated jobs is reconstructed from protocol messages.
	nodeMode bool

	mu          sync.Mutex // guards records (needed on the live transport)
	jobs        []*Job
	jobIndex    map[string]*Job
	journal     []*Job        // decided jobs in decision order, append-only (see recordDecision)
	journalWake chan struct{} // closed at the next journal append; nil while nobody waits
	violations  []string
	events      []Event
	jobSeq      int
	disruptions int // fault-attributed anomalies (see protocolDrop, recordViolation)
}

// faultsOn reports whether this cluster runs with transport fault injection,
// which also arms the protocol's defensive machinery (lock leases,
// retransmitted aborts) and reclassifies violations as fault disruptions.
func (c *Cluster) faultsOn() bool {
	return c.cfg.Faults != nil && c.cfg.Faults.Enabled()
}

// membershipOn reports whether the membership layer (heartbeats, flooded
// notices, epoch-tagged repairs, runtime join) runs on this cluster.
func (c *Cluster) membershipOn() bool { return c.mcfg.Enabled }

// resilient reports whether the cluster runs under injected adversity —
// transport faults or membership churn. Resilient clusters arm the
// protocol's defensive machinery (member lock leases, retransmitted
// aborts, eager straggler unlocks) and account graceful-degradation drops
// as disruptions instead of violations: a message lost against a dead or
// mid-repair site is an expected consequence of churn, not a protocol bug.
func (c *Cluster) resilient() bool { return c.faultsOn() || c.membershipOn() }

// armFaults activates the configured fault plan once the bootstrap is done;
// plan times are relative to the epoch. Failure *detection* is no longer
// scripted here: the membership layer's heartbeats and suspicion timeouts
// (armMembership) discover crashes through the protocol itself.
func (c *Cluster) armFaults() {
	if !c.faultsOn() {
		return
	}
	c.tr.SetFaults(*c.cfg.Faults, c.epoch)
}

// armMembership starts each owned site's membership manager inside that
// site's execution context. Shared by the DES and live constructors and by
// Node.Seal.
func (c *Cluster) armMembership() {
	if !c.membershipOn() {
		return
	}
	for _, s := range c.sites {
		if s == nil || s.member == nil {
			continue
		}
		m := s.member
		if m.Started() || m.Joining() {
			continue // the join path started it during the handshake
		}
		c.tr.After(s.id, 0, m.Start)
	}
}

// MembershipSnapshots reports each owned site's membership view. Only safe
// once the cluster has quiesced (sites own their managers); experiments
// and tests call it after Run.
func (c *Cluster) MembershipSnapshots() []membership.Snapshot {
	var out []membership.Snapshot
	for _, s := range c.sites {
		if s != nil && s.member != nil {
			out = append(out, s.member.Snapshot())
		}
	}
	return out
}

// protocolDrop reports an anomaly on a graceful-degradation path (a dropped
// un-routable message, a refused commit of an unknown job, lost plan
// fragments). On a faulty cluster these are expected consequences of the
// injected faults and only counted; on a faultless cluster they indicate a
// protocol bug and are reported as violations so tests fail loudly.
func (c *Cluster) protocolDrop(site graph.NodeID, msg string) {
	if !c.resilient() {
		c.recordViolation(msg)
		return
	}
	c.mu.Lock()
	c.disruptions++
	c.mu.Unlock()
	c.event(site, "", EvMsgDropped, msg)
}

// FaultDisruptions reports how many anomalies were attributed to injected
// faults (dropped protocol messages, causality misses from lost results,
// torn-down executions). Always 0 on a faultless cluster.
func (c *Cluster) FaultDisruptions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disruptions
}

// eventLimit is the livelock backstop on discrete-event clusters.
const eventLimit = 200_000_000

// NewCluster builds a DES-backed cluster and runs the PCS construction.
// Config.KernelWorkers selects the kernel: 0 the serial reference engine,
// >= 1 the conservative parallel kernel (same event order, same tables).
func NewCluster(topo *graph.Graph, cfg Config) (*Cluster, error) {
	if err := cfg.validate(topo.Len()); err != nil {
		return nil, err
	}
	if !topo.Connected() {
		return nil, fmt.Errorf("core: topology is not connected")
	}
	mcfg := cfg.membershipConfig()
	if mcfg.Enabled && mcfg.Horizon <= 0 {
		return nil, fmt.Errorf("core: membership on a discrete-event cluster needs " +
			"Config.Membership.Horizon, or the heartbeat timers keep the event queue alive forever")
	}
	c := &Cluster{
		cfg:      cfg,
		mcfg:     mcfg,
		topo:     topo,
		jobIndex: make(map[string]*Job),
	}
	if cfg.Hier {
		lay, err := hier.NewLayout(topo)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		c.lay = lay
	}
	if cfg.KernelWorkers > 0 {
		workers := cfg.KernelWorkers
		if cfg.Faults != nil && (cfg.Faults.Loss > 0 || cfg.Faults.MaxJitter > 0) {
			// Loss/jitter draws come from one sequential random source in
			// global send order; only a single partition reproduces it.
			// Crash-only plans are pure in (site, time) and parallelize.
			workers = 1
		}
		if workers > topo.Len() {
			workers = topo.Len()
		}
		part := topo.Partition(workers)
		pe, err := par.New(part, topo.MinCrossDelay(part))
		if err != nil {
			return nil, fmt.Errorf("core: parallel kernel: %w", err)
		}
		pe.SetEventLimit(eventLimit)
		c.par = pe
		c.ptr = simnet.NewPartDES(pe, topo, part)
		c.tr = c.ptr
	} else {
		engine := sim.New()
		engine.SetEventLimit(eventLimit)
		c.engine = engine
		c.tr = simnet.NewDES(engine, topo)
	}
	if c.lay != nil {
		// Count traversals that cross a region boundary: the headline claim
		// of the hierarchy is that region-local work generates none.
		assign := c.lay.Assign
		c.tr.Stats().SetBoundary(func(from, to graph.NodeID) bool {
			return assign[from] != assign[to]
		})
	}
	c.sites = make([]*Site, topo.Len())
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		s := newSite(id, c)
		c.sites[id] = s
		c.tr.Attach(id, s.handle)
	}
	for _, s := range c.sites {
		if s.boot != nil {
			s.boot.Start()
		} else {
			s.rnode.Start()
		}
	}
	if err := c.Run(); err != nil {
		return nil, fmt.Errorf("core: PCS bootstrap: %w", err)
	}
	for _, s := range c.sites {
		if s.boot != nil {
			if !s.boot.Done() {
				return nil, fmt.Errorf("core: site %d never finished hierarchical bootstrap (missing regions %v)",
					s.id, s.boot.MissingRegions())
			}
			s.adoptHier(s.boot.Finish())
		}
		if s.table == nil {
			return nil, fmt.Errorf("core: site %d never finished PCS construction", s.id)
		}
	}
	c.epoch = c.tr.Now()
	c.bootstrapMessages = c.tr.Stats().Messages()
	c.bootstrapBytes = c.tr.Stats().Bytes()
	c.tr.Stats().Reset()
	c.armFaults()
	c.armMembership()
	return c, nil
}

// Submit schedules a job arrival `at` time units after the epoch. The
// deadline is relative to arrival. Returns the job record, which is filled
// in as the simulation runs.
func (c *Cluster) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) (*Job, error) {
	if at < 0 {
		return nil, fmt.Errorf("core: negative submission time %v", at)
	}
	if int(origin) < 0 || int(origin) >= len(c.sites) {
		return nil, fmt.Errorf("core: origin site %d out of range", origin)
	}
	if relDeadline <= 0 {
		return nil, fmt.Errorf("core: non-positive relative deadline %v", relDeadline)
	}
	c.mu.Lock()
	c.jobSeq++
	job := &Job{
		ID:          fmt.Sprintf("j%d@%d", c.jobSeq, origin),
		Graph:       g,
		Origin:      origin,
		Arrival:     c.epoch + at,
		AbsDeadline: c.epoch + at + relDeadline,
		remaining:   make(map[dag.TaskID]bool, g.Len()),
	}
	for _, id := range g.TaskIDs() {
		job.remaining[id] = true
	}
	c.jobs = append(c.jobs, job)
	c.jobIndex[job.ID] = job
	c.mu.Unlock()
	site := c.sites[origin]
	if c.par != nil {
		c.par.Schedule(int(origin), int(origin), job.Arrival, func() { site.jobArrives(job) })
	} else {
		c.engine.AtFixed(job.Arrival, func() { site.jobArrives(job) })
	}
	return job, nil
}

// Run processes all pending events (arrivals, protocol traffic, execution).
func (c *Cluster) Run() error {
	if c.par != nil {
		return c.par.Run()
	}
	return c.engine.Run()
}

// RunUntil advances the simulation to epoch-relative time t.
func (c *Cluster) RunUntil(t float64) error {
	if c.par != nil {
		return c.par.RunUntil(c.epoch + t)
	}
	return c.engine.RunUntil(c.epoch + t)
}

// Now reports the current epoch-relative time.
func (c *Cluster) Now() float64 { return c.tr.Now() - c.epoch }

// nowFor reports the virtual time site id's execution context observes. On
// the serial and live transports that is the transport-wide clock; on the
// parallel kernel it is the site's partition clock — the only clock an
// event closure may consult while partitions run concurrently.
func (c *Cluster) nowFor(id graph.NodeID) float64 {
	if c.ptr != nil {
		return c.ptr.NowFor(id)
	}
	return c.tr.Now()
}

// virtualTime reports whether the cluster runs on a discrete-event kernel
// (serial or parallel), as opposed to a wall-clock transport.
func (c *Cluster) virtualTime() bool { return c.engine != nil || c.par != nil }

// Jobs returns all submitted job records in submission order.
func (c *Cluster) Jobs() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Job(nil), c.jobs...)
}

// JobStatus is a synchronized snapshot of one job's decision state — safe
// to read while the cluster is still running, unlike the live Job record,
// whose fields are written by initiator goroutines on wall-clock
// transports. The node control API and the load harness poll these.
type JobStatus struct {
	ID          string       `json:"id"`
	Origin      graph.NodeID `json:"origin"`
	Arrival     float64      `json:"arrival"`
	AbsDeadline float64      `json:"abs_deadline"`
	Outcome     Outcome      `json:"-"`
	OutcomeName string       `json:"outcome"`
	RejectStage RejectStage  `json:"reject_stage,omitempty"`
	DecisionAt  float64      `json:"decision_at"`
	Done        bool         `json:"done"`
	CompletedAt float64      `json:"completed_at"`
	ACSSize     int          `json:"acs_size"`
	NumProcs    int          `json:"num_procs"`
}

// JobStatuses snapshots every locally-submitted job under the cluster
// lock, in submission order.
func (c *Cluster) JobStatuses() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return statusesOf(c.jobs)
}

// statusesOf snapshots job records; callers hold c.mu.
func statusesOf(jobs []*Job) []JobStatus {
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = JobStatus{
			ID:          j.ID,
			Origin:      j.Origin,
			Arrival:     j.Arrival,
			AbsDeadline: j.AbsDeadline,
			Outcome:     j.Outcome,
			OutcomeName: j.Outcome.String(),
			RejectStage: j.RejectStage,
			DecisionAt:  j.DecisionAt,
			Done:        j.Done,
			CompletedAt: j.CompletedAt,
			ACSSize:     j.ACSSize,
			NumProcs:    j.NumProcs,
		}
	}
	return out
}

// decidedSince reads the decision journal from a cursor: the statuses of
// up to limit (0 = all) jobs decided after the first `cursor` decisions, in
// decision order, the cursor to pass next time, and a channel that is closed
// at the next decision (for a reader whose tail came back empty). A cursor
// outside the journal reads from the start: re-reading is harmless, skipping
// is not.
func (c *Cluster) decidedSince(cursor, limit int) (tail []JobStatus, next int, wake <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cursor < 0 || cursor > len(c.journal) {
		cursor = 0
	}
	next = len(c.journal)
	if limit > 0 && next-cursor > limit {
		next = cursor + limit
	}
	if c.journalWake == nil {
		c.journalWake = make(chan struct{})
	}
	return statusesOf(c.journal[cursor:next]), next, c.journalWake
}

// Stats exposes the post-bootstrap communication counters.
func (c *Cluster) Stats() *simnet.Stats { return c.tr.Stats() }

// BootstrapCost reports the messages and bytes spent constructing the PCS.
func (c *Cluster) BootstrapCost() (messages, bytes int64) {
	return c.bootstrapMessages, c.bootstrapBytes
}

// routedTTL bounds the hop count of one routed protocol message. Flat
// clusters derive it from the sphere radius (protocol traffic stays inside
// spheres); hierarchical clusters route across regions along landmark
// gradients whose length is bounded by the network, not the radius, so the
// bound is the loop guard 4n+8 — gradient routing is loop-free, the TTL
// only catches a corrupted table.
func (c *Cluster) routedTTL() int {
	if c.lay != nil {
		return 4*c.topo.Len() + 8
	}
	return 4*c.cfg.Radius + 8
}

// Layout exposes the region/landmark structure (nil on flat clusters).
func (c *Cluster) Layout() *hier.Layout { return c.lay }

// BootstrapRounds reports the interruption bound the routing bootstrap ran
// under: the flat protocol's global round count, or the largest per-region
// round count of the hierarchy.
func (c *Cluster) BootstrapRounds() int {
	if c.lay != nil {
		return c.lay.MaxRounds()
	}
	return routing.RoundsForRadius(c.cfg.Radius)
}

// RoutingState reports the largest per-site routing-state footprint across
// the cluster's sites — the hierarchy's O(√n) headline versus the flat
// table's O(n). Only safe once the cluster has quiesced.
func (c *Cluster) RoutingState() (maxBytes, maxEntries int) {
	for _, s := range c.sites {
		if s == nil || s.table == nil {
			continue
		}
		if b := s.table.StateBytes(); b > maxBytes {
			maxBytes = b
		}
		if e := s.table.StateEntries(); e > maxEntries {
			maxEntries = e
		}
	}
	return maxBytes, maxEntries
}

// RemoteRegionViews reports the cross-region liveness digests a landmark
// has received from its adjacent peers (tests and observability; empty for
// non-landmarks and flat clusters).
func (c *Cluster) RemoteRegionViews(id graph.NodeID) map[int][]membership.Entry {
	out := make(map[int][]membership.Entry)
	s := c.sites[id]
	if s == nil {
		return out
	}
	for _, r := range determinism.SortedKeys(s.remoteRegions) {
		out[r] = append([]membership.Entry(nil), s.remoteRegions[r]...)
	}
	return out
}

// EventsProcessed reports how many discrete events the underlying engine has
// fired (0 on the live transport, which has no event queue). The experiment
// harness aggregates this into its events/sec throughput metric.
func (c *Cluster) EventsProcessed() int64 {
	if c.par != nil {
		return c.par.Processed()
	}
	if c.engine == nil {
		return 0
	}
	return c.engine.Processed()
}

// Violations lists causality violations detected during execution. A sound
// run has none; tests assert emptiness.
func (c *Cluster) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// AllIdle reports whether every site has released its lock, drained its
// deferred queue and closed its transactions — the expected state once the
// event queue is empty. Tests assert it. This reads site state directly and
// is only safe on the single-threaded DES transport; LiveCluster shadows it
// with a probe routed through each site's execution context.
func (c *Cluster) AllIdle() bool {
	for _, s := range c.sites {
		if s == nil { // node mode: only the owned site is local
			continue
		}
		if s.locked() || len(s.deferred) > 0 || len(s.txns) > 0 {
			return false
		}
	}
	return true
}

// SiteSphere exposes a site's PCS (for tests and experiments).
func (c *Cluster) SiteSphere(id graph.NodeID) []graph.NodeID {
	s := c.sites[id]
	return append([]graph.NodeID(nil), s.pcs...)
}

// SitePlanReservations exposes a site's committed reservations (for tests).
func (c *Cluster) SitePlanReservations(id graph.NodeID) []schedule.Reservation {
	return c.sites[id].plan.Reservations()
}

// TaskExecution describes one task's realized execution: which site ran it
// and the bounds of its execution (a contiguous slot on the non-preemptive
// plan, the first/last fragment on the preemptive plan).
type TaskExecution struct {
	Job   *Job
	Task  dag.TaskID
	Site  graph.NodeID
	Start float64
	End   float64
}

// Executions reports every realized task execution across all sites, in a
// deterministic order. Used by the internal/verify oracle and tests.
func (c *Cluster) Executions() []TaskExecution {
	var out []TaskExecution
	for _, s := range c.sites {
		if s == nil { // node mode: only the owned site is local
			continue
		}
		// Preemptive bounds come from the plan's fragments.
		type bounds struct{ start, end float64 }
		var fragBounds map[string]map[int]bounds
		if s.plan.Preemptive() {
			fragBounds = make(map[string]map[int]bounds)
			for _, f := range s.plan.Reservations() {
				byTask := fragBounds[f.Job]
				if byTask == nil {
					byTask = make(map[int]bounds)
					fragBounds[f.Job] = byTask
				}
				b, ok := byTask[f.Task]
				if !ok {
					b = bounds{start: f.Start, end: f.End}
				} else {
					if f.Start < b.start {
						b.start = f.Start
					}
					if f.End > b.end {
						b.end = f.End
					}
				}
				byTask[f.Task] = b
			}
		}
		for _, jobID := range determinism.SortedKeys(s.exec) {
			e := s.exec[jobID]
			if e.cancelled {
				continue
			}
			for _, id := range determinism.SortedKeys(e.reservations) {
				ti := int(id)
				te := TaskExecution{Job: e.job, Task: id, Site: s.id}
				if s.plan.Preemptive() {
					b := fragBounds[jobID][ti]
					te.Start, te.End = b.start, b.end
				} else {
					r := e.reservations[id]
					te.Start, te.End = r.Start, r.End
				}
				out = append(out, te)
			}
		}
	}
	return out
}

func (c *Cluster) jobByID(id string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobIndex[id]
}

// noteJobACS and noteJobProcs record a job's mapping shape under the
// record lock: on wall-clock transports these fields are written by the
// initiator's goroutine while status snapshots read them concurrently.
func (c *Cluster) noteJobACS(job *Job, n int) {
	c.mu.Lock()
	job.ACSSize = n
	c.mu.Unlock()
}

func (c *Cluster) noteJobProcs(job *Job, n int) {
	c.mu.Lock()
	job.NumProcs = n
	c.mu.Unlock()
}

func (c *Cluster) recordDecision(job *Job, outcome Outcome, stage RejectStage, at float64) {
	c.mu.Lock()
	if job.Outcome != Pending {
		c.mu.Unlock()
		panic(fmt.Sprintf("core: job %s decided twice (%v then %v)", job.ID, job.Outcome, outcome))
	}
	job.Outcome = outcome
	job.RejectStage = stage
	job.DecisionAt = at
	// Every decision of every execution mode passes here, so the journal is
	// complete by construction. Waiters are woken by channel: this package
	// runs under the DES and may not touch timers.
	c.journal = append(c.journal, job)
	if c.journalWake != nil {
		close(c.journalWake)
		c.journalWake = nil
	}
	c.mu.Unlock()
	detail := outcome.String()
	if stage != "" {
		detail += "/" + string(stage)
	}
	c.event(job.Origin, job.ID, EvDecided, detail)
}

func (c *Cluster) recordTaskDone(job *Job, task dag.TaskID, at float64) {
	c.mu.Lock()
	if !job.remaining[task] {
		c.mu.Unlock()
		return
	}
	delete(job.remaining, task)
	if at > job.CompletedAt {
		job.CompletedAt = at
	}
	done := len(job.remaining) == 0
	if done {
		job.Done = true
	}
	c.mu.Unlock()
	c.event(job.Origin, job.ID, EvTaskDone, fmt.Sprintf("t%d at %.3f", task, at))
	if done {
		c.event(job.Origin, job.ID, EvJobDone, fmt.Sprintf("completed %.3f", job.CompletedAt))
	}
}

func (c *Cluster) recordViolation(msg string) {
	if c.resilient() {
		// Under injected faults or membership churn a causality miss (a
		// slot firing without its lost inputs) is an expected disruption,
		// not a protocol bug; keep Violations reserved for genuine
		// correctness failures so faulty experiment runs remain checkable.
		c.mu.Lock()
		c.disruptions++
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, msg)
}

// Summary aggregates a run's outcomes.
type Summary struct {
	Submitted            int
	AcceptedLocal        int
	AcceptedDistributed  int
	Rejected             int
	Undecided            int // still Pending after the run (initiator died mid-transaction)
	RejectedByStage      map[RejectStage]int
	CompletedOnTime      int
	CompletedLate        int
	AcceptedNotCompleted int
	GuaranteeRatio       float64 // accepted / submitted
	MeanDecisionLatency  float64 // over decided jobs
	MeanACSSize          float64 // over distributed attempts
	Messages             int64
	Bytes                int64
	MessagesPerJob       float64 // per-job protocol traffic (control excluded)
	ControlMessages      int64   // membership + route-repair traversals (included in Messages)
	ControlBytes         int64
	Dropped              int64 // traversals discarded by the fault injector
	Disruptions          int   // fault-attributed protocol anomalies
	// Routing-state footprint (largest per-site table) and cross-region
	// traffic. CrossRegionMessages is counted only on hierarchical clusters
	// (flat clusters install no region boundary) and is always 0 when every
	// submitted job resolved inside its origin's region.
	RoutingTableBytes   int
	RoutingEntries      int
	CrossRegionMessages int64
}

// Summarize computes the run summary. Call it after Run has drained.
func (c *Cluster) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{RejectedByStage: make(map[RejectStage]int)}
	var latencySum float64
	var latencyN int
	var acsSum, acsN float64
	for _, j := range c.jobs {
		s.Submitted++
		switch j.Outcome {
		case AcceptedLocal:
			s.AcceptedLocal++
		case AcceptedDistributed:
			s.AcceptedDistributed++
		case Rejected:
			s.Rejected++
			s.RejectedByStage[j.RejectStage]++
		case Pending:
			s.Undecided++
		}
		if j.Outcome != Pending {
			latencySum += j.DecisionAt - j.Arrival
			latencyN++
		}
		if j.ACSSize > 0 {
			acsSum += float64(j.ACSSize)
			acsN++
		}
		if j.Accepted() {
			switch {
			case j.MetDeadline():
				s.CompletedOnTime++
			case j.Done:
				s.CompletedLate++
			default:
				s.AcceptedNotCompleted++
			}
		}
	}
	if s.Submitted > 0 {
		s.GuaranteeRatio = float64(s.AcceptedLocal+s.AcceptedDistributed) / float64(s.Submitted)
		// Per-job cost excludes control-plane traffic: heartbeats scale with
		// time and topology, not with jobs, and folding them in would let a
		// quiet cluster look expensive per job.
		s.MessagesPerJob = float64(c.tr.Stats().Messages()-c.tr.Stats().ControlMessages()) /
			float64(s.Submitted)
	}
	if latencyN > 0 {
		s.MeanDecisionLatency = latencySum / float64(latencyN)
	}
	if acsN > 0 {
		s.MeanACSSize = acsSum / acsN
	}
	s.Messages = c.tr.Stats().Messages()
	s.Bytes = c.tr.Stats().Bytes()
	s.ControlMessages = c.tr.Stats().ControlMessages()
	s.ControlBytes = c.tr.Stats().ControlBytes()
	s.Dropped = c.tr.Stats().Dropped()
	s.Disruptions = c.disruptions
	s.CrossRegionMessages = c.tr.Stats().CrossMessages()
	for _, site := range c.sites {
		if site == nil || site.table == nil {
			continue
		}
		if b := site.table.StateBytes(); b > s.RoutingTableBytes {
			s.RoutingTableBytes = b
		}
		if e := site.table.StateEntries(); e > s.RoutingEntries {
			s.RoutingEntries = e
		}
	}
	return s
}

// String renders the summary as a compact report.
func (s Summary) String() string {
	stages := determinism.SortedKeys(s.RejectedByStage)
	out := fmt.Sprintf(
		"jobs=%d accepted=%d (local=%d dist=%d) rejected=%d ratio=%.3f ontime=%d late=%d msgs=%d bytes=%d msgs/job=%.1f",
		s.Submitted, s.AcceptedLocal+s.AcceptedDistributed, s.AcceptedLocal,
		s.AcceptedDistributed, s.Rejected, s.GuaranteeRatio,
		s.CompletedOnTime, s.CompletedLate, s.Messages, s.Bytes, s.MessagesPerJob)
	if s.Undecided > 0 {
		out += fmt.Sprintf(" undecided=%d", s.Undecided)
	}
	if s.ControlMessages > 0 {
		out += fmt.Sprintf(" control=%d", s.ControlMessages)
	}
	if s.Dropped > 0 {
		out += fmt.Sprintf(" dropped=%d", s.Dropped)
	}
	if s.CrossRegionMessages > 0 {
		out += fmt.Sprintf(" xregion=%d", s.CrossRegionMessages)
	}
	if s.Disruptions > 0 {
		out += fmt.Sprintf(" disruptions=%d", s.Disruptions)
	}
	for _, st := range stages {
		out += fmt.Sprintf(" reject[%s]=%d", st, s.RejectedByStage[st])
	}
	return out
}
