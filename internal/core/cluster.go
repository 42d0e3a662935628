package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/hier"
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
//   - NewLiveCluster: every site on one injected wall-clock transport (the
//     rtds facade's: loopback TCP); the transport's WaitIdle.
//   - NewNode: one site over an injected transport (TCP in deployment);
//     the caller's WaitReady, then Seal. Flat or hierarchical, as on the
//     other two.
//
// A host knows which sites it runs (c.sites[id] != nil) and nothing about
// how many hosts there are: on every runtime a member learns a job only
// from the initiator's CommitMsg, and a site drops a job's state once the
// job can no longer touch it (see Site.exec and Site.ownJobs). Counters are
// recorded with their facts, never re-derived from records (see tally).
// What a host keeps for its lifetime is the records of the jobs submitted to
// it, the record log and its sites' plan reservations. Jobs are submitted at
// times relative to the post-bootstrap epoch.
type Cluster struct {
	cfg  Config
	mcfg membership.Config // resolved membership configuration
	topo *graph.Graph
	lay  *hier.Layout // region structure; nil on flat clusters
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

	mu         sync.Mutex // guards records and the sites' tallies (needed on the wall-clock transports)
	jobs       []*Job
	jobSeq     int
	log        []Event       // the record stream, append-only (see record)
	decideWake chan struct{} // closed at the next decision; nil while nobody waits
}

// faultsOn reports whether this cluster runs with transport fault injection
// (one of the two conditions that make it resilient).
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

// newHost builds the sites in local over tr and attaches their handlers. It
// sends nothing, so every host of a network can be attached before the
// first bootstrap message flies. cfg must have passed Config.validate.
func newHost(topo *graph.Graph, cfg Config, tr simnet.Transport, local []graph.NodeID) (*Cluster, error) {
	c := &Cluster{
		cfg:   cfg,
		mcfg:  cfg.membershipConfig(),
		topo:  topo,
		tr:    tr,
		sites: make([]*Site, topo.Len()),
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

// startBootstrap kicks the routing bootstrap (§7 PCS construction, within
// each region under the hierarchy) from each local site's execution
// context. Call once the transport runs; peers in other hosts start their
// own.
func (c *Cluster) startBootstrap() {
	for _, s := range c.local {
		start := s.rnode.Start
		if c.virtualTime() {
			start() // nothing runs yet: the caller is every site's context
		} else {
			c.tr.After(s.id, 0, start)
		}
	}
}

// finishBootstrap closes the bootstrap once the runtime reports that the
// network drained, and seals. The sites adopted their tables as their last
// rounds completed; the barrier checks that every one did.
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
		taskDone:    make([]bool, g.Len()),
		tasksLeft:   g.Len(),
	}
	c.jobs = append(c.jobs, job)
	site.tally.submitted++
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
// Run and RunUntil drive virtual time: on a wall-clock host (LiveCluster,
// Node), where the transport runs itself, they return an error.
func (c *Cluster) Run() error {
	if !c.virtualTime() {
		return c.wallClockErr("Run")
	}
	return c.kernel.Run()
}

// RunUntil advances the simulation to epoch-relative time t.
func (c *Cluster) RunUntil(t float64) error {
	if !c.virtualTime() {
		return c.wallClockErr("RunUntil")
	}
	return c.kernel.RunUntil(c.epoch + t)
}

func (c *Cluster) wallClockErr(op string) error {
	return fmt.Errorf("core: %s drives virtual time, and this host runs on the wall-clock transport %T", op, c.tr)
}

// EventsProcessed reports how many discrete events the kernel has fired (0
// on wall-clock runtimes, which have no event queue). The experiment suite
// records it per experiment, and rtds-bench -check pins it.
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
	out := make([]JobStatus, len(c.jobs))
	for i, j := range c.jobs {
		out[i] = statusOf(j)
	}
	return out
}

// statusOf snapshots one job record; callers hold c.mu.
func statusOf(j *Job) JobStatus {
	return JobStatus{
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

// Stats exposes the post-bootstrap communication counters.
func (c *Cluster) Stats() *simnet.Stats { return c.tr.Stats() }

// BootstrapCost reports the messages and bytes spent constructing the PCS.
func (c *Cluster) BootstrapCost() (messages, bytes int64) {
	return c.bootstrapMessages, c.bootstrapBytes
}

// routedTTL bounds the hop count of one routed protocol message at twice
// the longest path the bootstrap can discover, plus slack: R rounds
// discover paths of at most R+1 edges — 2h under the flat protocol's
// radius h, twice the largest region's hop diameter under the hierarchy,
// whose routes never leave their region. Forwarding is loop-free; the TTL
// only catches a corrupted table.
func (c *Cluster) routedTTL() int {
	if c.lay != nil {
		return 2*(c.lay.MaxRounds()+1) + 8
	}
	return 4*c.cfg.Radius + 8
}

// Layout exposes the region structure (nil on flat clusters).
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

// TaskExecution describes one task's execution as its site's plan holds
// it: which site runs it and the bounds of its execution (a contiguous slot
// on the non-preemptive plan, the first/last fragment on the preemptive
// plan).
type TaskExecution struct {
	JobID string
	Task  dag.TaskID
	Site  graph.NodeID
	Start float64
	End   float64
}

// Executions reports every task execution committed in the local sites'
// plans, by site, then job id, then task. Used by the internal/verify
// oracle and tests.
func (c *Cluster) Executions() []TaskExecution {
	type jobTask struct {
		job  string
		task int
	}
	var out []TaskExecution
	for _, s := range c.local {
		first := len(out)
		// A preemptive task runs in fragments: its entry spans them all.
		at := make(map[jobTask]int)
		for _, r := range s.plan.Reservations() {
			k := jobTask{r.Job, r.Task}
			if i, ok := at[k]; ok {
				out[i].Start = min(out[i].Start, r.Start)
				out[i].End = max(out[i].End, r.End)
				continue
			}
			at[k] = len(out)
			out = append(out, TaskExecution{JobID: r.Job, Task: dag.TaskID(r.Task), Site: s.id, Start: r.Start, End: r.End})
		}
		slices.SortFunc(out[first:], func(a, b TaskExecution) int {
			return cmp.Or(strings.Compare(a.JobID, b.JobID), cmp.Compare(a.Task, b.Task))
		})
	}
	return out
}

// LatencyBounds are the upper bounds of the decision-latency buckets, in
// time units of the protocol clock: a local decision lands in the first, a
// distributed one costs a few link round trips.
var LatencyBounds = [...]float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

// tally is what one site has counted of the facts recorded at it. Submit,
// record and adoptTable update it under c.mu as they record; Summarize only
// adds tallies up, so no counter reads a retained record.
type tally struct {
	submitted, onTime, late      int               // jobs originated; accepted ones Done on time, late
	outcomes                     [Rejected + 1]int // decisions by outcome
	rejectedBy                   map[RejectStage]int
	latency                      [len(LatencyBounds) + 1]int // decisions by bucket, as Summary.DecisionLatencies
	latencySum                   float64
	acsSum, acsN                 int // ACS sizes of the jobs that formed one
	violations, disruptions      int
	routingBytes, routingEntries int // the table's footprint at its last adoption
}

// completed counts j on time or late if it is accepted and Done. record calls
// it at j's decision and at j's last completion, so it counts j once.
func (t *tally) completed(j *Job) {
	switch {
	case !j.Done || !j.Accepted():
	case j.MetDeadline():
		t.onTime++
	default:
		t.late++
	}
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
	// DecisionLatencies counts decided jobs by latency: entry i those in
	// (LatencyBounds[i-1], LatencyBounds[i]], the last those above them all.
	DecisionLatencies [len(LatencyBounds) + 1]int
	MeanACSSize       float64 // over distributed attempts
	Messages          int64
	Bytes             int64
	MessagesPerJob    float64 // per-job protocol traffic (control excluded)
	ControlMessages   int64   // membership + route-repair traversals (included in Messages)
	ControlBytes      int64
	Dropped           int64 // traversals discarded by the fault injector
	Violations        int   // anomalies on a plain cluster (see Cluster.Violations)
	Disruptions       int   // anomalies on a resilient cluster (faults or membership armed)
	// Routing-state footprint (largest per-site table; zero before the
	// bootstrap completes) and cross-region traffic. CrossRegionMessages is counted only on hierarchical clusters
	// (flat clusters install no region boundary) and is always 0 when every
	// submitted job resolved inside its origin's region.
	RoutingTableBytes   int
	RoutingEntries      int
	CrossRegionMessages int64
}

// Summarize adds up the local sites' tallies and reads the transport's
// counters: O(sites), and safe while the host runs.
func (c *Cluster) Summarize() Summary {
	st := c.tr.Stats()
	s := Summary{RejectedByStage: make(map[RejectStage]int), Messages: st.Messages(), Bytes: st.Bytes(),
		ControlMessages: st.ControlMessages(), ControlBytes: st.ControlBytes(), Dropped: st.Dropped(),
		CrossRegionMessages: st.CrossMessages()}
	var latencySum float64 // per-site sums in site order: the same float on every kernel
	var acsSum, acsN int
	c.mu.Lock()
	for _, site := range c.local {
		t := &site.tally
		s.Submitted += t.submitted
		s.AcceptedLocal += t.outcomes[AcceptedLocal]
		s.AcceptedDistributed += t.outcomes[AcceptedDistributed]
		s.Rejected += t.outcomes[Rejected]
		for stage, n := range t.rejectedBy {
			s.RejectedByStage[stage] += n
		}
		s.CompletedOnTime += t.onTime
		s.CompletedLate += t.late
		for i, n := range t.latency {
			s.DecisionLatencies[i] += n
		}
		latencySum += t.latencySum
		acsSum, acsN = acsSum+t.acsSum, acsN+t.acsN
		s.Violations += t.violations
		s.Disruptions += t.disruptions
		s.RoutingTableBytes = max(s.RoutingTableBytes, t.routingBytes)
		s.RoutingEntries = max(s.RoutingEntries, t.routingEntries)
	}
	c.mu.Unlock()
	accepted := s.AcceptedLocal + s.AcceptedDistributed
	decided := accepted + s.Rejected
	s.Undecided = s.Submitted - decided
	s.AcceptedNotCompleted = accepted - s.CompletedOnTime - s.CompletedLate
	if s.Submitted > 0 {
		s.GuaranteeRatio = float64(accepted) / float64(s.Submitted)
		// Per-job cost excludes control-plane traffic: heartbeats scale with
		// time and topology, not with jobs, and folding them in would let a
		// quiet cluster look expensive per job.
		s.MessagesPerJob = float64(s.Messages-s.ControlMessages) / float64(s.Submitted)
	}
	if decided > 0 {
		s.MeanDecisionLatency = latencySum / float64(decided)
	}
	if acsN > 0 {
		s.MeanACSSize = float64(acsSum) / float64(acsN)
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
