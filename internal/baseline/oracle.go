package baseline

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
)

// Oracle is the centralized upper-bound scheduler: a clairvoyant admission
// controller with a global view of every site's exact reservations, zero
// protocol latency, zero message cost and exact (not ω-over-estimated)
// inter-site delays. No distributed algorithm can beat it by more than its
// greedy slack, so it bounds how much of RTDS's rejection rate is inherent
// to the workload versus caused by distribution overheads.
//
// Admission is the same greedy family as the paper's mapper: tasks in
// critical-path priority order, earliest-finishing placement over all
// sites' exact idle gaps, precedence enforced with true shortest-path
// delays. Placements commit atomically per job (all tasks or none).
type Oracle struct {
	topo  *graph.Graph
	dist  [][]float64
	sites []oracleSite
	jobs  []*core.Job
}

type oracleSite struct {
	busy []interval // sorted, disjoint
}

type interval struct {
	start, end float64
	job        string
}

// NewOracle builds the centralized scheduler over the topology.
func NewOracle(topo *graph.Graph) *Oracle {
	o := &Oracle{topo: topo, sites: make([]oracleSite, topo.Len())}
	o.dist = make([][]float64, topo.Len())
	for u := 0; u < topo.Len(); u++ {
		res := topo.Dijkstra(graph.NodeID(u))
		o.dist[u] = make([]float64, topo.Len())
		for v := 0; v < topo.Len(); v++ {
			o.dist[u][v] = res[v].Dist
		}
	}
	return o
}

// Submit processes one arrival. Arrivals must be submitted in
// non-decreasing time order (the oracle is still an on-line scheduler: it
// cannot revisit past decisions, only see the present perfectly).
func (o *Oracle) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) *core.Job {
	job := &core.Job{
		ID:          fmt.Sprintf("oracle%d", len(o.jobs)+1),
		Graph:       g,
		Origin:      origin,
		Arrival:     at,
		AbsDeadline: at + relDeadline,
	}
	o.jobs = append(o.jobs, job)
	if o.place(job) {
		job.Outcome = core.AcceptedDistributed
		job.Done = true
	} else {
		job.Outcome = core.Rejected
		job.RejectStage = "oracle"
	}
	job.DecisionAt = at
	return job
}

type tentative struct {
	site       int
	start, end float64
}

func (o *Oracle) place(job *core.Job) bool {
	g := job.Graph
	placed := make([]tentative, g.Len()) // task id's slot at id-1; site -1 until placed
	for i := range placed {
		placed[i].site = -1
	}
	for _, id := range g.PriorityOrder() {
		best := tentative{site: -1}
		for site := 0; site < o.topo.Len(); site++ {
			release := job.Arrival
			for _, p := range g.Predecessors(id) {
				pp := placed[p-1]
				arrival := pp.end + o.dist[pp.site][site]
				if arrival > release {
					release = arrival
				}
			}
			start, ok := o.earliestGap(site, release, job.AbsDeadline, g.Complexity(id), placed)
			if !ok {
				continue
			}
			if best.site < 0 || start+g.Complexity(id) < best.end {
				best = tentative{site: site, start: start, end: start + g.Complexity(id)}
			}
		}
		if best.site < 0 {
			return false // atomic: nothing committed yet
		}
		placed[id-1] = best
	}
	for _, tv := range placed {
		o.sites[tv.site].insert(interval{start: tv.start, end: tv.end, job: job.ID})
		if tv.end > job.CompletedAt {
			job.CompletedAt = tv.end
		}
	}
	return true
}

// earliestGap finds the earliest start >= release such that
// [start, start+dur] fits in site's committed gaps plus this job's own
// tentative placements on the same site, and ends by deadline.
func (o *Oracle) earliestGap(site int, release, deadline, dur float64, placedSoFar []tentative) (float64, bool) {
	occ := append([]interval(nil), o.sites[site].busy...)
	for _, tv := range placedSoFar {
		if tv.site == site {
			occ = append(occ, interval{start: tv.start, end: tv.end})
		}
	}
	sort.Slice(occ, func(i, j int) bool { return occ[i].start < occ[j].start })
	start := release
	for _, iv := range occ {
		if iv.end <= start+1e-9 {
			continue
		}
		if iv.start >= start+dur-1e-9 {
			break
		}
		start = iv.end
	}
	if start+dur <= deadline+1e-9 {
		return start, true
	}
	return 0, false
}

func (s *oracleSite) insert(iv interval) {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].start >= iv.start })
	s.busy = append(s.busy, interval{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = iv
}

// Jobs lists submitted jobs.
func (o *Oracle) Jobs() []*core.Job { return o.jobs }

// GuaranteeRatio is accepted / submitted.
func (o *Oracle) GuaranteeRatio() float64 {
	if len(o.jobs) == 0 {
		return 0
	}
	acc := 0
	for _, j := range o.jobs {
		if j.Accepted() {
			acc++
		}
	}
	return float64(acc) / float64(len(o.jobs))
}
