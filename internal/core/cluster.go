package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/schedule"
	"repro/internal/simnet"
)

// Cluster is the one host of RTDS sites: a set of locally hosted sites over
// a simnet.Transport. Site construction, the flat or hierarchical bootstrap,
// sealing, submission, site probes and job records are the same code on
// every runtime; the three public constructors only choose the transport,
// which sites are local and how quiescence of the bootstrap is awaited:
//
//   - NewCluster: every site on the deterministic DES; the event queue
//     drained (Run). All experiments use it.
//   - NewLiveCluster: every site on the goroutine transport; Live.WaitIdle.
//   - NewNode: one site over an injected transport (TCP in deployment);
//     the caller's WaitReady, then Seal.
//
// A host knows which sites it runs (c.sites[id] != nil) and nothing about
// how many hosts there are: state for jobs initiated elsewhere is rebuilt
// from the protocol messages (see adoptRemoteJob). Jobs are submitted at
// times relative to the post-bootstrap epoch.
type Cluster struct {
	cfg  Config
	mcfg membership.Config // resolved membership configuration
	topo *graph.Graph
	lay  *hier.Layout // region/landmark structure; nil on flat clusters
	tr   simnet.Transport
	// kernel drives virtual time: the event kernel under the DES transport
	// NewCluster built itself — never recovered from an injected transport,
	// which a decorator would hide. Nil on wall-clock runtimes.
	kernel simnet.Kernel
	sites  []*Site // by site id; nil where the site is hosted elsewhere
	local  []*Site // the sites this host runs, ascending

	epoch             float64 // transport time when bootstrap finished
	bootstrapMessages int64
	bootstrapBytes    int64

	mu          sync.Mutex // guards records (needed on the wall-clock transports)
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

// newHost builds the sites in local over tr and attaches their handlers. It
// sends nothing, so every host of a network can be attached before the
// first bootstrap message flies. cfg must have passed Config.validate.
func newHost(topo *graph.Graph, cfg Config, tr simnet.Transport, local []graph.NodeID) (*Cluster, error) {
	c := &Cluster{
		cfg:      cfg,
		mcfg:     cfg.membershipConfig(),
		topo:     topo,
		tr:       tr,
		sites:    make([]*Site, topo.Len()),
		jobIndex: make(map[string]*Job),
	}
	if cfg.Hier {
		lay, err := hier.NewLayout(topo)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		c.lay = lay
		// Count traversals that cross a region boundary: the headline claim
		// of the hierarchy is that region-local work generates none.
		assign := lay.Assign
		tr.Stats().SetBoundary(func(from, to graph.NodeID) bool {
			return assign[from] != assign[to]
		})
	}
	for _, id := range local {
		s := newSite(id, c)
		c.sites[id] = s
		c.local = append(c.local, s)
		tr.Attach(id, s.handle)
	}
	return c, nil
}

// everySite lists the site ids of an n-site topology.
func everySite(n int) []graph.NodeID {
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	return ids
}

// startBootstrap kicks the routing bootstrap (§7 PCS construction, or the
// two-phase hierarchical one) from each local site's execution context.
// Call once the transport runs; peers in other hosts start their own.
func (c *Cluster) startBootstrap() {
	for _, s := range c.local {
		start := s.rnode.Start
		if s.boot != nil {
			start = s.boot.Start
		}
		if c.virtualTime() {
			start() // nothing runs yet: the caller is every site's context
		} else {
			c.tr.After(s.id, 0, start)
		}
	}
}

// finishBootstrap closes the bootstrap once the runtime reports that the
// network drained, and seals. The barrier matters for the hierarchy: its
// landmark flood terminates by "no strict improvement" and has no local end
// signal, so a site cannot tell by itself that its landmark vector is final
// (flat tables are adopted by the sites as their last round completes).
func (c *Cluster) finishBootstrap() error {
	errs := probe(c, (*Site).finishBootstrap)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if len(errs) != len(c.local) {
		return fmt.Errorf("core: %d of %d sites did not answer after the bootstrap", len(c.local)-len(errs), len(c.local))
	}
	c.seal()
	return nil
}

// seal marks the end of the bootstrap phase: the epoch is fixed, the
// bootstrap communication cost is recorded, the per-job counters are zeroed
// and the operational phase is armed — the fault plan (its times are
// relative to the epoch, so construction always runs fault-free) and the
// membership managers, each started in its site's execution context, whose
// heartbeats and suspicion timeouts discover crashes through the protocol.
func (c *Cluster) seal() {
	c.epoch = c.tr.Now()
	c.bootstrapMessages = c.tr.Stats().Messages()
	c.bootstrapBytes = c.tr.Stats().Bytes()
	c.tr.Stats().Reset()
	if c.faultsOn() {
		c.tr.SetFaults(*c.cfg.Faults, c.epoch)
	}
	for _, s := range c.local {
		// On the join path the handshake already started the manager.
		if m := s.member; m != nil && !m.Started() && !m.Joining() {
			c.tr.After(s.id, 0, m.Start)
		}
	}
}

// eventLimit is the livelock backstop on discrete-event clusters.
const eventLimit = 200_000_000

// NewCluster builds a DES-backed cluster of every site of the topology and
// runs the routing bootstrap to completion. Config.KernelWorkers selects
// the kernel: 0 the serial reference engine, >= 1 the conservative parallel
// kernel (same event order, same tables).
func NewCluster(topo *graph.Graph, cfg Config) (*Cluster, error) {
	if err := cfg.validate(topo); err != nil {
		return nil, err
	}
	if mcfg := cfg.membershipConfig(); mcfg.Enabled && mcfg.Horizon <= 0 {
		return nil, fmt.Errorf("core: membership on a discrete-event cluster needs " +
			"Config.Membership.Horizon, or the heartbeat timers keep the event queue alive forever")
	}
	workers := cfg.KernelWorkers
	if workers > 1 && cfg.Faults != nil && (cfg.Faults.Loss > 0 || cfg.Faults.MaxJitter > 0) {
		// Loss/jitter draws come from one sequential random source in
		// global send order; only a single partition reproduces it.
		// Crash-only plans are pure in (site, time) and parallelize.
		workers = 1
	}
	kernel, err := simnet.NewKernel(topo, workers)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	kernel.SetEventLimit(eventLimit)
	c, err := newHost(topo, cfg, simnet.NewDES(kernel, topo), everySite(topo.Len()))
	if err != nil {
		return nil, err
	}
	c.kernel = kernel
	c.startBootstrap()
	if err := c.Run(); err != nil {
		return nil, fmt.Errorf("core: PCS bootstrap: %w", err)
	}
	if err := c.finishBootstrap(); err != nil {
		return nil, err
	}
	return c, nil
}

// Submit schedules a job arrival at a locally hosted origin site `at` time
// units after the epoch; the deadline is relative to arrival. Returns the
// job record, which is filled in as the protocol runs. Every entry point
// (Cluster, LiveCluster, Node) submits through here.
func (c *Cluster) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) (*Job, error) {
	if at < 0 {
		return nil, fmt.Errorf("core: negative submission time %v", at)
	}
	if int(origin) < 0 || int(origin) >= len(c.sites) {
		return nil, fmt.Errorf("core: origin site %d out of range", origin)
	}
	site := c.sites[origin]
	if site == nil {
		return nil, fmt.Errorf("core: origin site %d is not hosted here", origin)
	}
	if relDeadline <= 0 {
		return nil, fmt.Errorf("core: non-positive relative deadline %v", relDeadline)
	}
	c.mu.Lock()
	c.jobSeq++
	arrival := c.epoch + at
	if !c.virtualTime() {
		// The wall clock may already have passed the requested instant.
		arrival = max(arrival, c.tr.Now())
	}
	job := &Job{
		ID:          fmt.Sprintf("j%d@%d", c.jobSeq, origin),
		Graph:       g,
		Origin:      origin,
		Arrival:     arrival,
		AbsDeadline: arrival + relDeadline,
		remaining:   make(map[dag.TaskID]bool, g.Len()),
	}
	for _, id := range g.TaskIDs() {
		job.remaining[id] = true
	}
	c.jobs = append(c.jobs, job)
	c.jobIndex[job.ID] = job
	c.mu.Unlock()
	arrive := func() { site.jobArrives(job) }
	if c.virtualTime() {
		// At the absolute time, not After(arrival-now): in floating point
		// now+(arrival-now) != arrival, and the experiment tables are
		// compared byte for byte. Fire-and-forget: no index entry per job.
		c.kernel.Schedule(int(origin), int(origin), arrival, arrive)
	} else {
		c.tr.After(origin, max(0, arrival-c.tr.Now()), arrive)
	}
	return job, nil
}

// Run processes all pending events (arrivals, protocol traffic, execution).
// Run, RunUntil and EventsProcessed drive virtual time and exist on
// discrete-event clusters only.
func (c *Cluster) Run() error { return c.kernel.Run() }

// RunUntil advances the simulation to epoch-relative time t.
func (c *Cluster) RunUntil(t float64) error { return c.kernel.RunUntil(c.epoch + t) }

// EventsProcessed reports how many discrete events the kernel has fired (0
// on wall-clock runtimes, which have no event queue). The experiment harness
// aggregates this into its events/sec throughput metric.
func (c *Cluster) EventsProcessed() int64 {
	if !c.virtualTime() {
		return 0
	}
	return c.kernel.Processed()
}

// Now reports the current epoch-relative time.
func (c *Cluster) Now() float64 { return c.tr.Now() - c.epoch }

// virtualTime reports whether the cluster runs on a discrete-event kernel
// (serial or parallel), as opposed to a wall-clock transport.
func (c *Cluster) virtualTime() bool { return c.kernel != nil }

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

// Violations lists causality violations detected during execution. A sound
// run has none; tests assert emptiness.
func (c *Cluster) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
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
	for _, s := range c.local {
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
	if c.tracing() {
		detail := outcome.String()
		if stage != "" {
			detail += "/" + string(stage)
		}
		c.event(job.Origin, job.ID, EvDecided, detail)
	}
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
	if c.tracing() {
		c.event(job.Origin, job.ID, EvTaskDone, fmt.Sprintf("t%d at %.3f", task, at))
	}
	if done && c.tracing() {
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
	for _, site := range c.local {
		st := site.routingState()
		s.RoutingTableBytes = max(s.RoutingTableBytes, st[0])
		s.RoutingEntries = max(s.RoutingEntries, st[1])
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
