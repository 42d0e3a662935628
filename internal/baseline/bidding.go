// Package baseline implements the comparison schemes RTDS is evaluated
// against:
//
//   - LocalOnly — handled by core.Config.LocalOnly: jobs failing the local
//     test are rejected outright;
//   - BroadcastSphere — handled by running RTDS with a sphere radius at
//     least the network hop diameter (helpers in internal/experiments);
//   - FocusedBidding (this file) — a reconstruction of the focused
//     addressing + bidding scheme of Cheng–Stankovic–Ramamritham [4] and
//     the flexible algorithms of [10, 12, 5], which the paper's §3
//     describes as periodically broadcasting every site's surplus over all
//     the network. The paper could not compare against [4] for lack of
//     detail; we reconstruct the *communication pattern* it criticizes so
//     experiment E2 can quantify the claim.
//
// FocusedBidding semantics (this reconstruction's own; the paper gives
// none): on local failure the origin sends the whole job to the
// known-best-surplus site (the focused site) and requests bids from the
// next-best sites; bids go to the focused site, which keeps the job if it
// can guarantee it locally and otherwise awards it to the best bidder. Jobs are never split across
// sites, which is the functional gap to RTDS; surplus dissemination floods
// the entire network periodically, which is the communication gap.
//
// Routing tables are given to sites for free (no bootstrap cost is
// charged), which biases the comparison against RTDS — conservatively.
package baseline

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/core/policy"
	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Config tunes the focused addressing + bidding scheme.
type Config struct {
	// Horizon bounds the periodic flooding (floods stop after it); set it to
	// at least the workload horizon.
	Horizon float64
	// Faults arms transport fault injection (see simnet.FaultPlan). The
	// baseline has no bootstrap phase, so plan times are relative to 0 and
	// loss also hits the surplus floods — which is fair: the flooding
	// traffic the paper criticizes runs on the same faulty network. A job
	// whose offer, bid, award or verdict is lost stays undecided, which
	// counts against the guarantee ratio.
	Faults *simnet.FaultPlan
}

// DefaultConfig mirrors core.DefaultConfig's spirit.
func DefaultConfig(horizon float64) Config {
	return Config{Horizon: horizon}
}

const (
	// surplusPeriod is the interval between network-wide surplus floods.
	surplusPeriod = 25
	// numBidders is how many next-best sites receive a request for bid.
	numBidders = 3
	// bidSlack pads the focused site's bid-collection timeout beyond the
	// network round trip.
	bidSlack = 1e-3
)

// surplusMsg floods one site's surplus over the whole network.
type surplusMsg struct {
	Origin  graph.NodeID
	Seq     int
	Surplus float64
}

func (surplusMsg) Kind() string   { return "fab.surplus" }
func (surplusMsg) SizeBytes() int { return 24 + 12 }

// offerMsg hands the whole job to the focused site.
type offerMsg struct {
	Job     *core.Job
	Origin  graph.NodeID
	Bidders []graph.NodeID
}

func (offerMsg) Kind() string     { return "fab.offer" }
func (m offerMsg) SizeBytes() int { return 24 + 64 + m.Job.Graph.Len()*32 + 8*len(m.Bidders) }

// rfbMsg requests a bid for a job.
type rfbMsg struct {
	JobID   string
	Focused graph.NodeID
	Work    float64 // total complexity, for the bidder's estimate
}

func (rfbMsg) Kind() string   { return "fab.rfb" }
func (rfbMsg) SizeBytes() int { return 24 + 16 }

// bidMsg is a bidder's answer to the focused site.
type bidMsg struct {
	JobID   string
	Bidder  graph.NodeID
	Surplus float64
}

func (bidMsg) Kind() string   { return "fab.bid" }
func (bidMsg) SizeBytes() int { return 24 + 12 }

// awardMsg forwards the job from the focused site to the winning bidder.
type awardMsg struct {
	Job    *core.Job
	Origin graph.NodeID
}

func (awardMsg) Kind() string     { return "fab.award" }
func (m awardMsg) SizeBytes() int { return 24 + 64 + m.Job.Graph.Len()*32 }

// verdictMsg reports accept/reject back to the origin.
type verdictMsg struct {
	JobID    string
	Accepted bool
	Where    graph.NodeID
}

func (verdictMsg) Kind() string   { return "fab.verdict" }
func (verdictMsg) SizeBytes() int { return 24 + 9 }

// routedMsg is the hop-by-hop envelope (same accounting as core.Routed).
type routedMsg struct {
	Src, Dest graph.NodeID
	TTL       int
	Inner     simnet.Payload
}

func (r routedMsg) Kind() string   { return r.Inner.Kind() }
func (r routedMsg) SizeBytes() int { return 8 + r.Inner.SizeBytes() }

// Cluster runs the focused addressing + bidding scheme on a DES transport.
type Cluster struct {
	cfg    Config
	topo   *graph.Graph
	engine *sim.Engine
	tr     *simnet.DES
	sites  []*site

	mu       sync.Mutex
	jobs     []*core.Job
	jobIndex map[string]*core.Job
	jobSeq   int
}

type site struct {
	id      graph.NodeID
	c       *Cluster
	plan    *schedule.NonPreemptivePlan
	table   *routing.Table
	surplus map[graph.NodeID]float64
	seen    map[graph.NodeID]int // flood dedup: highest seq per origin
	seq     int

	pending map[string]*pendingJob // focused-site state per job
}

type pendingJob struct {
	job     *core.Job
	origin  graph.NodeID
	bids    map[graph.NodeID]float64
	waiting int
	timer   simnet.CancelFunc
	decided bool
}

// NewCluster builds the baseline cluster. Routing tables are computed
// centrally and handed to the sites at no message cost.
func NewCluster(topo *graph.Graph, cfg Config) (*Cluster, error) {
	if !topo.Connected() {
		return nil, fmt.Errorf("baseline: topology not connected")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("baseline: invalid config %+v", cfg)
	}
	engine := sim.New()
	engine.SetEventLimit(200_000_000)
	c := &Cluster{
		cfg:      cfg,
		topo:     topo,
		engine:   engine,
		tr:       simnet.NewDES(engine, topo),
		jobIndex: make(map[string]*core.Job),
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(topo.Len()); err != nil {
			return nil, err
		}
		if cfg.Faults.Enabled() {
			c.tr.SetFaults(*cfg.Faults, 0)
		}
	}
	// One synchronous-flow simulation yields every site's table; building
	// them per site would redo the O(n)-round computation n times.
	tables := routing.CentralTables(topo, topo.Len()-1)
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		s := &site{
			id:      id,
			c:       c,
			plan:    schedule.NewNonPreemptive(),
			table:   tables[id],
			surplus: make(map[graph.NodeID]float64),
			seen:    make(map[graph.NodeID]int),
			pending: make(map[string]*pendingJob),
		}
		c.sites = append(c.sites, s)
		c.tr.Attach(id, s.handle)
	}
	// Periodic network-wide surplus floods, the §3 pattern under critique.
	for _, s := range c.sites {
		s := s
		var announce func()
		announce = func() {
			s.floodSurplus()
			if engine.Now()+surplusPeriod <= cfg.Horizon {
				engine.AfterFixed(surplusPeriod, announce)
			}
		}
		engine.AtFixed(0, announce)
	}
	return c, nil
}

// Submit schedules a job arrival (times are absolute: the baseline has no
// bootstrap epoch).
func (c *Cluster) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) (*core.Job, error) {
	if at < 0 || relDeadline <= 0 {
		return nil, fmt.Errorf("baseline: invalid submission at=%v d=%v", at, relDeadline)
	}
	if int(origin) < 0 || int(origin) >= len(c.sites) {
		return nil, fmt.Errorf("baseline: origin %d out of range", origin)
	}
	c.mu.Lock()
	c.jobSeq++
	job := &core.Job{
		ID:          fmt.Sprintf("fab%d@%d", c.jobSeq, origin),
		Graph:       g,
		Origin:      origin,
		Arrival:     at,
		AbsDeadline: at + relDeadline,
	}
	c.jobs = append(c.jobs, job)
	c.jobIndex[job.ID] = job
	c.mu.Unlock()
	s := c.sites[origin]
	c.engine.AtFixed(at, func() { s.jobArrives(job) })
	return job, nil
}

// Run drains the simulation.
func (c *Cluster) Run() error { return c.engine.Run() }

// Jobs lists submitted jobs.
func (c *Cluster) Jobs() []*core.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*core.Job(nil), c.jobs...)
}

// Stats exposes communication counters.
func (c *Cluster) Stats() *simnet.Stats { return c.tr.Stats() }

// EventsProcessed reports how many discrete events the engine has fired.
func (c *Cluster) EventsProcessed() int64 { return c.engine.Processed() }

// GuaranteeRatio is accepted / submitted.
func (c *Cluster) GuaranteeRatio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.jobs) == 0 {
		return 0
	}
	acc := 0
	for _, j := range c.jobs {
		if j.Accepted() {
			acc++
		}
	}
	return float64(acc) / float64(len(c.jobs))
}

func (c *Cluster) decide(job *core.Job, outcome core.Outcome, stage core.RejectStage, at float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if job.Outcome != core.Pending {
		return
	}
	job.Outcome = outcome
	job.RejectStage = stage
	job.DecisionAt = at
}

// ---------------------------------------------------------------------------
// site behaviour

func (s *site) now() float64 { return s.c.engine.Now() }

func (s *site) handle(from graph.NodeID, p simnet.Payload) {
	switch m := p.(type) {
	case surplusMsg:
		s.onSurplus(from, m)
	case routedMsg:
		if m.Dest != s.id {
			s.forward(m)
			return
		}
		s.dispatch(m.Inner)
	default:
		panic(fmt.Sprintf("baseline: unexpected payload %q", p.Kind()))
	}
}

func (s *site) dispatch(p simnet.Payload) {
	switch m := p.(type) {
	case offerMsg:
		s.onOffer(m)
	case rfbMsg:
		s.onRFB(m)
	case bidMsg:
		s.onBid(m)
	case awardMsg:
		s.onAward(m)
	case verdictMsg:
		s.c.decide(s.c.jobByID(m.JobID), outcomeOf(m), stageOf(m), s.now())
	default:
		panic(fmt.Sprintf("baseline: unexpected routed payload %q", p.Kind()))
	}
}

func outcomeOf(m verdictMsg) core.Outcome {
	if m.Accepted {
		return core.AcceptedDistributed
	}
	return core.Rejected
}

func stageOf(m verdictMsg) core.RejectStage {
	if m.Accepted {
		return ""
	}
	return "bidding"
}

func (c *Cluster) jobByID(id string) *core.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobIndex[id]
}

func (s *site) sendTo(dest graph.NodeID, p simnet.Payload) {
	if dest == s.id {
		s.dispatch(p)
		return
	}
	s.forward(routedMsg{Src: s.id, Dest: dest, TTL: s.c.topo.Len() + 4, Inner: p})
}

func (s *site) forward(m routedMsg) {
	if m.TTL <= 0 {
		panic("baseline: TTL exhausted")
	}
	m.TTL--
	nh, ok := s.table.NextHop(m.Dest)
	if !ok {
		panic(fmt.Sprintf("baseline: no route from %d to %d", s.id, m.Dest))
	}
	if err := s.c.tr.Send(s.id, nh, m); err != nil {
		panic(err)
	}
}

// floodSurplus broadcasts this site's surplus to the entire network.
func (s *site) floodSurplus() {
	s.seq++
	msg := surplusMsg{Origin: s.id, Seq: s.seq, Surplus: s.plan.Surplus(s.now(), core.SurplusWindow)}
	s.surplus[s.id] = msg.Surplus
	s.seen[s.id] = s.seq
	for _, e := range s.c.topo.Neighbors(s.id) {
		if err := s.c.tr.Send(s.id, e.To, msg); err != nil {
			panic(err)
		}
	}
}

func (s *site) onSurplus(from graph.NodeID, m surplusMsg) {
	if s.seen[m.Origin] >= m.Seq {
		return // already flooded
	}
	s.seen[m.Origin] = m.Seq
	s.surplus[m.Origin] = m.Surplus
	for _, e := range s.c.topo.Neighbors(s.id) {
		if e.To == from {
			continue
		}
		if err := s.c.tr.Send(s.id, e.To, m); err != nil {
			panic(err)
		}
	}
}

// localTest runs the RTDS local test (policy.EDF, §5) on this site's plan
// at power 1 and commits on success.
func (s *site) localTest(job *core.Job) bool {
	tk, ok := policy.EDF{}.LocalTest(s.plan, s.now(), job.ID, job.Graph, job.Arrival, job.AbsDeadline, 1)
	if !ok || s.plan.Commit(tk) != nil {
		return false
	}
	end := 0.0
	for _, pl := range tk.Placements {
		if pl.End > end {
			end = pl.End
		}
	}
	s.c.engine.At(end, func() { s.completeJob(job, end) })
	return true
}

func (s *site) completeJob(job *core.Job, at float64) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	job.Done = true
	if at > job.CompletedAt {
		job.CompletedAt = at
	}
}

// jobArrives runs the origin-side logic: local first, then focused
// addressing + bidding.
func (s *site) jobArrives(job *core.Job) {
	if s.localTest(job) {
		s.c.decide(job, core.AcceptedLocal, "", s.now())
		return
	}
	// Rank known sites by surplus (descending), self excluded.
	type cand struct {
		id graph.NodeID
		v  float64
	}
	var cands []cand
	for _, id := range determinism.SortedKeys(s.surplus) {
		if id != s.id {
			cands = append(cands, cand{id, s.surplus[id]})
		}
	}
	if len(cands) == 0 {
		s.c.decide(job, core.Rejected, "no-candidates", s.now())
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].v != cands[j].v {
			return cands[i].v > cands[j].v
		}
		return cands[i].id < cands[j].id
	})
	focused := cands[0].id
	var bidders []graph.NodeID
	for _, c := range cands[1:] {
		if len(bidders) == numBidders {
			break
		}
		bidders = append(bidders, c.id)
	}
	s.sendTo(focused, offerMsg{Job: job, Origin: s.id, Bidders: bidders})
	for _, b := range bidders {
		s.sendTo(b, rfbMsg{JobID: job.ID, Focused: focused, Work: job.Graph.TotalComplexity()})
	}
}

// onOffer runs at the focused site.
func (s *site) onOffer(m offerMsg) {
	if s.localTest(m.Job) {
		s.sendTo(m.Origin, verdictMsg{JobID: m.Job.ID, Accepted: true, Where: s.id})
		return
	}
	if len(m.Bidders) == 0 {
		s.sendTo(m.Origin, verdictMsg{JobID: m.Job.ID, Accepted: false})
		return
	}
	p := &pendingJob{
		job:     m.Job,
		origin:  m.Origin,
		bids:    make(map[graph.NodeID]float64),
		waiting: len(m.Bidders),
	}
	s.pending[m.Job.ID] = p
	timeout := 2*s.c.topo.DelayDiameter() + bidSlack
	p.timer = s.c.tr.After(s.id, timeout, func() { s.awardOrReject(p) })
}

// onRFB runs at a bidder: report current surplus to the focused site.
func (s *site) onRFB(m rfbMsg) {
	s.sendTo(m.Focused, bidMsg{
		JobID:   m.JobID,
		Bidder:  s.id,
		Surplus: s.plan.Surplus(s.now(), core.SurplusWindow),
	})
}

func (s *site) onBid(m bidMsg) {
	p, ok := s.pending[m.JobID]
	if !ok || p.decided {
		return
	}
	p.bids[m.Bidder] = m.Surplus
	if len(p.bids) >= p.waiting {
		if p.timer != nil {
			p.timer()
		}
		s.awardOrReject(p)
	}
}

func (s *site) awardOrReject(p *pendingJob) {
	if p.decided {
		return
	}
	p.decided = true
	delete(s.pending, p.job.ID)
	best := graph.NodeID(-1)
	bestV := -1.0
	ids := determinism.SortedKeys(p.bids)
	for _, id := range ids {
		if v := p.bids[id]; v > bestV {
			best, bestV = id, v
		}
	}
	if best < 0 {
		s.sendTo(p.origin, verdictMsg{JobID: p.job.ID, Accepted: false})
		return
	}
	s.sendTo(best, awardMsg{Job: p.job, Origin: p.origin})
}

// onAward runs at the winning bidder: last chance to guarantee the job.
func (s *site) onAward(m awardMsg) {
	ok := s.localTest(m.Job)
	s.sendTo(m.Origin, verdictMsg{JobID: m.Job.ID, Accepted: ok, Where: s.id})
}
