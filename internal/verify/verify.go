// Package verify is an independent feasibility oracle for completed runs:
// it re-derives, from first principles — the topology, the jobs' DAGs and
// the realized task executions — whether the system's guarantees actually
// held, without trusting any protocol state:
//
//   - no site ever executed two things at once;
//   - every accepted job had every task executed exactly once, inside the
//     job window;
//   - precedence was honoured physically: a successor started no earlier
//     than its predecessor's completion plus the actual shortest-path delay
//     between their sites (plus the data-transfer time when the §13 volume
//     model is on);
//   - rejected jobs left no residue.
//
// The experiments and stress tests run Check after every simulation; a
// non-empty report is a correctness bug, not a tuning issue.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
)

const eps = 1e-6

// Check validates the realized executions of a finished run. throughput is
// the cluster's §13 data-volume throughput (0 when disabled); preemptive
// skips the per-site overlap check, whose slot semantics only apply to
// contiguous reservations (preemptive fragment envelopes interleave by
// design, while releases still enforce precedence). The returned slice is
// empty iff every guarantee held.
func Check(topo *graph.Graph, jobs []*core.Job, execs []core.TaskExecution, throughput float64, preemptive bool) []error {
	var errs []error
	report := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// Index executions by job and by site.
	byJob := make(map[string]map[dag.TaskID]core.TaskExecution)
	bySite := make(map[graph.NodeID][]core.TaskExecution)
	for _, te := range execs {
		m := byJob[te.JobID]
		if m == nil {
			m = make(map[dag.TaskID]core.TaskExecution)
			byJob[te.JobID] = m
		}
		if prev, dup := m[te.Task]; dup {
			report("job %s task %d executed twice (site %d and site %d)",
				te.JobID, te.Task, prev.Site, te.Site)
			continue
		}
		m[te.Task] = te
		bySite[te.Site] = append(bySite[te.Site], te)
	}

	// Per-site mutual exclusion over contiguous slots.
	for site, list := range bySite {
		if preemptive {
			break
		}
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].End-eps {
				report("site %d executed %s/t%d [%g,%g] overlapping %s/t%d [%g,%g]",
					site, list[i].JobID, list[i].Task, list[i].Start, list[i].End,
					list[i-1].JobID, list[i-1].Task, list[i-1].Start, list[i-1].End)
			}
		}
	}

	// All-pairs shortest delays, computed once.
	dist := make([][]float64, topo.Len())
	for u := 0; u < topo.Len(); u++ {
		res := topo.Dijkstra(graph.NodeID(u))
		dist[u] = make([]float64, topo.Len())
		for v := 0; v < topo.Len(); v++ {
			dist[u][v] = res[v].Dist
		}
	}

	for _, job := range jobs {
		execsOf := byJob[job.ID]
		if !job.Accepted() {
			if len(execsOf) > 0 {
				report("rejected job %s left %d task executions behind", job.ID, len(execsOf))
			}
			continue
		}
		g := job.Graph
		for _, id := range g.TaskIDs() {
			te, ok := execsOf[id]
			if !ok {
				report("accepted job %s task %d never executed", job.ID, id)
				continue
			}
			if te.Start < job.Arrival-eps {
				report("job %s task %d started %g before arrival %g", job.ID, id, te.Start, job.Arrival)
			}
			if te.End > job.AbsDeadline+eps {
				report("job %s task %d finished %g after deadline %g", job.ID, id, te.End, job.AbsDeadline)
			}
		}
		// Physical precedence.
		for _, a := range g.TaskIDs() {
			ta, ok := execsOf[a]
			if !ok {
				continue
			}
			for _, b := range g.Successors(a) {
				tb, ok := execsOf[b]
				if !ok {
					continue
				}
				transfer := 0.0
				if ta.Site != tb.Site {
					transfer = dist[ta.Site][tb.Site]
					if throughput > 0 {
						transfer += g.EdgeVolume(a, b) / throughput
					}
				}
				if tb.Start < ta.End+transfer-eps {
					report("job %s edge %d->%d: successor started %g on site %d but predecessor finished %g on site %d (+%g transfer)",
						job.ID, a, b, tb.Start, tb.Site, ta.End, ta.Site, transfer)
				}
			}
		}
	}
	return errs
}

// CheckCluster runs Check on a finished cluster run.
func CheckCluster(c *core.Cluster, topo *graph.Graph, throughput float64, preemptive bool) []error {
	return Check(topo, c.Jobs(), c.Executions(), throughput, preemptive)
}
