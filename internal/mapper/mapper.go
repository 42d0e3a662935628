// Package mapper implements the Trial-Mapping construction of the paper
// (§9, instantiated in §12): given a DAG, the ACS member sites with their
// surpluses (in descending order), and the ACS delay diameter ω, it
// list-schedules the tasks onto logical processors and derives per-task
// releases r(t) and deadlines d(t), adjusted to the job window by the
// paper's equations (1)–(5).
//
// The mapper instance of §12:
//
//   - task selection: list scheduling by critical-path priority — the
//     longest node-weighted path from the task to a sink (task included);
//     the list contains only free tasks;
//   - processor selection: greedy earliest finishing time;
//   - durations: c(t) divided by the processor's surplus I (paper eq. 1)
//     and, for the §13 uniform-machines extension, by its computing power;
//   - communication: ω between distinct logical processors, 0 within one.
//
// Alternative heuristics are provided for the ablation experiment E8, since
// §9 notes "almost any heuristic can be adapted to our purpose".
package mapper

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/graph"
)

// ProcInfo describes one candidate logical processor: an ACS member site
// with its reported surplus.
type ProcInfo struct {
	Site    graph.NodeID
	Surplus float64 // I ∈ (0, 1]
	Power   float64 // relative computing power; 0 means 1 (identical machines)
}

func (p ProcInfo) power() float64 {
	if p.Power <= 0 {
		return 1
	}
	return p.Power
}

// Heuristic selects the processor for each task during list scheduling.
type Heuristic int

const (
	// HeuristicCPEFT is the paper's instance: earliest finishing time.
	HeuristicCPEFT Heuristic = iota
	// HeuristicBestSurplus always picks the highest-surplus processor —
	// it concentrates work and serves as an ablation baseline.
	HeuristicBestSurplus
	// HeuristicRoundRobin cycles through processors, ignoring both load and
	// communication — the naive spread-everything baseline.
	HeuristicRoundRobin
	// HeuristicMinMin jointly selects the (free task, processor) pair with
	// the minimum earliest finishing time instead of ordering tasks by
	// critical-path priority — the classic min-min heuristic of the
	// heterogeneous-computing literature (cf. Iverson & Özgüner [7, 8]).
	HeuristicMinMin
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case HeuristicCPEFT:
		return "cp-eft"
	case HeuristicBestSurplus:
		return "best-surplus"
	case HeuristicRoundRobin:
		return "round-robin"
	case HeuristicMinMin:
		return "min-min"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// LaxityMode selects how the extra laxity of case (iii) is scattered
// (paper §12.2 and the §13 "Laxity Dispatching" generalization).
type LaxityMode int

const (
	// LaxityUniform uses the constant ℓ = (d − r − M*)/η of §12.2.
	LaxityUniform LaxityMode = iota
	// LaxityBusynessWeighted gives tasks on busy processors more laxity:
	// ℓ(t) ∝ 1 − I(p(t)), normalized so no critical chain exceeds the
	// available laxity (§13).
	LaxityBusynessWeighted
)

// String implements fmt.Stringer.
func (m LaxityMode) String() string {
	if m == LaxityBusynessWeighted {
		return "busyness-weighted"
	}
	return "uniform"
}

// Options tunes the mapper.
type Options struct {
	Heuristic  Heuristic
	LaxityMode LaxityMode
	// Throughput enables the §13 data-volume model: the communication
	// delay between distinct logical processors for a DAG edge becomes
	// ω + volume/Throughput. Zero ignores data volumes (the base model).
	Throughput float64
}

// AdjustCase records which branch of §12.2 applied.
type AdjustCase int

const (
	// CaseRejected: M* > d − r, the job cannot fit even at full speed (i).
	CaseRejected AdjustCase = iota
	// CaseScale: M ≤ d − r, windows scaled by (d−r)/M (ii).
	CaseScale
	// CaseLaxity: M* ≤ d − r < M, windows rebuilt from S* with laxity (iii).
	CaseLaxity
)

// String implements fmt.Stringer.
func (c AdjustCase) String() string {
	switch c {
	case CaseRejected:
		return "rejected"
	case CaseScale:
		return "scale"
	case CaseLaxity:
		return "laxity"
	default:
		return fmt.Sprintf("case(%d)", int(c))
	}
}

// Assignment is one task's record in the trial mapping: its placement in
// the trial schedules and its adjusted window.
type Assignment struct {
	Proc        int     // logical processor index into TrialMapping.Procs
	Start       float64 // start in S (the surplus-scaled schedule)
	Finish      float64 // finish in S: the paper's di
	IdealStart  float64 // start in S* (surpluses = 100%)
	IdealFinish float64 // finish in S*
	Release     float64 // adjusted r(ti)
	Deadline    float64 // adjusted d(ti)
}

// TaskWindow is the validated contract for one task: it must execute for
// Complexity/power time units inside [Release, Deadline] on whichever site
// endorses the logical processor.
type TaskWindow struct {
	Task       dag.TaskID
	Complexity float64
	Release    float64
	Deadline   float64
}

// TrialMapping is the mapper's output M = (S, r, d) of paper §9.
type TrialMapping struct {
	Procs  []ProcInfo   // logical processors actually used
	Assign []Assignment // task id's record at id-1

	Makespan      float64 // M, measured from the job release
	IdealMakespan float64 // M*, lower bound of M for this mapping
	Case          AdjustCase
	Omega         float64
	Throughput    float64 // 0 when data volumes are ignored
	Eta           int     // η: only meaningful in CaseLaxity
	JobRelease    float64 // r
	JobDeadline   float64 // d (absolute)
}

// Tasks lists Ti — the windows of tasks assigned to logical processor i —
// sorted by task ID.
func (m *TrialMapping) Tasks(g *dag.Graph, proc int) []TaskWindow {
	var out []TaskWindow
	for i, a := range m.Assign {
		if a.Proc == proc {
			id := dag.TaskID(i + 1)
			out = append(out, TaskWindow{
				Task:       id,
				Complexity: g.Complexity(id),
				Release:    a.Release,
				Deadline:   a.Deadline,
			})
		}
	}
	return out
}

// Errors distinguishing rejection reasons.
var (
	ErrNoProcessors = errors.New("mapper: no candidate processors")
	// ErrWindowTooTight is case (i): M* > d − r.
	ErrWindowTooTight = errors.New("mapper: ideal makespan exceeds the job window (case i)")
	// ErrInconsistentWindows: the case-(iii) adjustment produced a task
	// whose window cannot hold its execution time.
	ErrInconsistentWindows = errors.New("mapper: adjusted windows cannot hold task executions")
)

const eps = 1e-9

// Build constructs and adjusts the trial mapping. procs must be the ACS
// members sorted by descending surplus (the paper's mapper input); r is the
// effective job release (arrival plus protocol latency allowance, see §13)
// and d the absolute job deadline.
func Build(g *dag.Graph, procs []ProcInfo, omega, r, d float64, opts Options) (*TrialMapping, error) {
	if len(procs) == 0 {
		return nil, ErrNoProcessors
	}
	for i, p := range procs {
		if p.Surplus <= 0 || p.Surplus > 1+eps {
			return nil, fmt.Errorf("mapper: processor %d has invalid surplus %v", i, p.Surplus)
		}
	}
	if omega < 0 || d <= r {
		return nil, fmt.Errorf("mapper: invalid window r=%v d=%v omega=%v", r, d, omega)
	}

	if opts.Throughput < 0 {
		return nil, fmt.Errorf("mapper: negative throughput %v", opts.Throughput)
	}
	sched := listSchedule(g, procs, omega, opts.Throughput, r, opts.Heuristic)
	ideal := idealize(g, procs, omega, opts.Throughput, r, sched)

	m := &TrialMapping{
		Assign:      make([]Assignment, g.Len()),
		Omega:       omega,
		Throughput:  opts.Throughput,
		JobRelease:  r,
		JobDeadline: d,
	}
	var maxFin, maxIdeal float64
	for i, pl := range sched.place {
		ia := ideal[i]
		m.Assign[i] = Assignment{
			Proc: pl.proc, Start: pl.start, Finish: pl.finish,
			IdealStart: ia.start, IdealFinish: ia.finish,
		}
		maxFin = math.Max(maxFin, pl.finish)
		maxIdeal = math.Max(maxIdeal, ia.finish)
	}
	m.Makespan = maxFin - r
	m.IdealMakespan = maxIdeal - r

	window := d - r
	switch {
	case m.IdealMakespan > window+eps: // case (i)
		m.Case = CaseRejected
		return nil, ErrWindowTooTight
	case m.Makespan <= window+eps: // case (ii)
		m.Case = CaseScale
		m.adjustByScaling(g, procs)
	default: // case (iii)
		m.Case = CaseLaxity
		if err := m.adjustByLaxity(g, procs, opts.LaxityMode); err != nil {
			return nil, err
		}
	}
	m.trimProcs(procs)
	return m, nil
}

// CommDelay is the over-estimated communication delay from pred to succ
// across distinct logical processors: the ACS delay diameter ω plus, when
// the §13 data-volume model is on, the transfer time of the edge's data.
func CommDelay(g *dag.Graph, omega, throughput float64, pred, succ dag.TaskID) float64 {
	if throughput <= 0 {
		return omega
	}
	return omega + g.EdgeVolume(pred, succ)/throughput
}

// comm is CommDelay bound to a mapping's parameters.
func (m *TrialMapping) comm(g *dag.Graph, pred, succ dag.TaskID) float64 {
	return CommDelay(g, m.Omega, m.Throughput, pred, succ)
}

// placement is one task's slot during list scheduling.
type placement struct {
	proc          int
	start, finish float64
}

type builtSchedule struct {
	place     []placement    // task id's slot at id-1
	procOrder [][]dag.TaskID // per-processor task sequence, in start order
}

// listSchedule runs the §12 list-scheduling loop.
func listSchedule(g *dag.Graph, procs []ProcInfo, omega, throughput, r float64, h Heuristic) builtSchedule {
	place := make([]placement, g.Len())
	procAvail := make([]float64, len(procs))
	for i := range procAvail {
		procAvail[i] = r
	}
	procOrder := make([][]dag.TaskID, len(procs))
	remainingPreds := make([]int, g.Len())
	var free []dag.TaskID
	for _, id := range g.TaskIDs() {
		remainingPreds[id-1] = len(g.Predecessors(id))
		if remainingPreds[id-1] == 0 {
			free = append(free, id)
		}
	}
	rrNext := 0 // round-robin cursor

	startOn := func(id dag.TaskID, proc int) float64 {
		start := math.Max(procAvail[proc], r)
		for _, p := range g.Predecessors(id) {
			pp := place[p-1]
			comm := 0.0
			if pp.proc != proc {
				comm = CommDelay(g, omega, throughput, p, id)
			}
			if t := pp.finish + comm; t > start {
				start = t
			}
		}
		return start
	}
	duration := func(id dag.TaskID, proc int) float64 {
		return g.Complexity(id) / (procs[proc].Surplus * procs[proc].power())
	}

	for len(free) > 0 {
		var id dag.TaskID
		if h == HeuristicMinMin {
			// Joint (task, processor) selection: smallest achievable EFT
			// over all free tasks; ties by smaller task ID.
			sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
			bestIdx, bestProc := 0, 0
			bestFin := math.Inf(1)
			for i, cand := range free {
				for p := range procs {
					fin := startOn(cand, p) + duration(cand, p)
					if fin < bestFin-eps {
						bestFin = fin
						bestIdx, bestProc = i, p
					}
				}
			}
			id = free[bestIdx]
			free = append(free[:bestIdx], free[bestIdx+1:]...)
			start := startOn(id, bestProc)
			fin := start + duration(id, bestProc)
			place[id-1] = placement{proc: bestProc, start: start, finish: fin}
			procAvail[bestProc] = fin
			procOrder[bestProc] = append(procOrder[bestProc], id)
			for _, s := range g.Successors(id) {
				remainingPreds[s-1]--
				if remainingPreds[s-1] == 0 {
					free = append(free, s)
				}
			}
			continue
		}

		// Highest critical-path priority first; ties by smaller ID.
		sort.Slice(free, func(i, j int) bool {
			bi, bj := g.BottomLevel(free[i]), g.BottomLevel(free[j])
			if bi != bj {
				return bi > bj
			}
			return free[i] < free[j]
		})
		id = free[0]
		free = free[1:]

		proc := 0
		switch h {
		case HeuristicRoundRobin:
			proc = rrNext % len(procs)
			rrNext++
		case HeuristicBestSurplus:
			proc = 0 // procs are sorted by descending surplus
		default: // HeuristicCPEFT
			bestFinish := math.Inf(1)
			for p := range procs {
				fin := startOn(id, p) + duration(id, p)
				if fin < bestFinish-eps {
					bestFinish = fin
					proc = p
				}
			}
		}
		start := startOn(id, proc)
		fin := start + duration(id, proc)
		place[id-1] = placement{proc: proc, start: start, finish: fin}
		procAvail[proc] = fin
		procOrder[proc] = append(procOrder[proc], id)

		for _, s := range g.Successors(id) {
			remainingPreds[s-1]--
			if remainingPreds[s-1] == 0 {
				free = append(free, s)
			}
		}
	}
	return builtSchedule{place: place, procOrder: procOrder}
}

// idealize recomputes the schedule times with surpluses at 100% (schedule
// S* of §12.2), keeping the mapping and the per-processor task order of S.
func idealize(g *dag.Graph, procs []ProcInfo, omega, throughput, r float64, s builtSchedule) []placement {
	ideal := make([]placement, len(s.place))
	done := make([]bool, len(s.place))
	procAvail := make([]float64, len(procs))
	for i := range procAvail {
		procAvail[i] = r
	}
	cursor := make([]int, len(procs))
	placed := 0
	for placed < len(s.place) {
		progressed := false
		for p := range procs {
			for cursor[p] < len(s.procOrder[p]) {
				id := s.procOrder[p][cursor[p]]
				ready := true
				start := math.Max(procAvail[p], r)
				for _, pr := range g.Predecessors(id) {
					if !done[pr-1] {
						ready = false
						break
					}
					ia := ideal[pr-1]
					comm := 0.0
					if ia.proc != p {
						comm = CommDelay(g, omega, throughput, pr, id)
					}
					if t := ia.finish + comm; t > start {
						start = t
					}
				}
				if !ready {
					break
				}
				fin := start + g.Complexity(id)/procs[p].power()
				ideal[id-1] = placement{proc: p, start: start, finish: fin}
				done[id-1] = true
				procAvail[p] = fin
				cursor[p]++
				placed++
				progressed = true
			}
		}
		if !progressed {
			panic("mapper: S* reconstruction deadlocked (inconsistent schedule order)")
		}
	}
	return ideal
}

// adjustByScaling implements case (ii): eq. (3) for deadlines, eq. (5) for
// releases.
func (m *TrialMapping) adjustByScaling(g *dag.Graph, procs []ProcInfo) {
	r, d := m.JobRelease, m.JobDeadline
	factor := (d - r) / m.Makespan
	for i := range m.Assign {
		a := &m.Assign[i]
		a.Deadline = r + (a.Finish-r)*factor // eq. (3)
	}
	m.computeReleases(g) // eq. (5)
}

// adjustByLaxity implements case (iii): eq. (4) in reverse topological
// order, then eq. (5).
func (m *TrialMapping) adjustByLaxity(g *dag.Graph, procs []ProcInfo, mode LaxityMode) error {
	r, d := m.JobRelease, m.JobDeadline
	extra := (d - r) - m.IdealMakespan
	lax := m.laxityPerTask(g, procs, mode, extra)

	topo := g.TopologicalOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		ai := &m.Assign[id-1]
		succ := g.Successors(id)
		if len(succ) == 0 {
			ai.Deadline = d
			continue
		}
		dl := math.Inf(1)
		for _, s := range succ {
			as := m.Assign[s-1]
			comm := 0.0
			if as.Proc != ai.Proc {
				comm = m.comm(g, id, s)
			}
			durStar := as.IdealFinish - as.IdealStart // c(tj) at full speed
			cand := as.Deadline - lax[s-1] - durStar - comm
			if cand < dl {
				dl = cand
			}
		}
		ai.Deadline = dl
	}
	m.computeReleases(g)

	// The paper leaves case (iii) consistency implicit; we verify that every
	// window can hold its execution (at full speed) and reject otherwise —
	// validation at the sites would fail anyway, this fails fast.
	for _, a := range m.Assign {
		durStar := a.IdealFinish - a.IdealStart
		if a.Release+durStar > a.Deadline+eps {
			return ErrInconsistentWindows
		}
	}
	return nil
}

// laxityPerTask computes ℓ(t) for eq. (4).
// The result holds task id's ℓ at id-1.
func (m *TrialMapping) laxityPerTask(g *dag.Graph, procs []ProcInfo, mode LaxityMode, extra float64) []float64 {
	eta, critical := m.criticalStructure(g)
	m.Eta = eta
	lax := make([]float64, g.Len())
	switch mode {
	case LaxityBusynessWeighted:
		// ℓ(t) ∝ busyness of t's processor, normalized so the heaviest
		// critical chain receives exactly `extra` in total.
		busy := func(id dag.TaskID) float64 {
			b := 1 - procs[m.Assign[id-1].Proc].Surplus
			if b < 0.05 {
				b = 0.05 // keep every task with some share
			}
			return b
		}
		heaviest := m.heaviestCriticalChain(g, critical, busy)
		if heaviest <= eps {
			return lax
		}
		for _, id := range g.TaskIDs() {
			lax[id-1] = extra * busy(id) / heaviest
		}
	default: // LaxityUniform: ℓ = (d − r − M*)/η for every task
		l := 0.0
		if eta > 0 {
			l = extra / float64(eta)
		}
		for i := range lax {
			lax[i] = l
		}
	}
	return lax
}

// computeReleases applies eq. (5) in topological order.
func (m *TrialMapping) computeReleases(g *dag.Graph) {
	for _, id := range g.TopologicalOrder() {
		ai := &m.Assign[id-1]
		rel := m.JobRelease
		for _, p := range g.Predecessors(id) {
			ap := m.Assign[p-1]
			comm := 0.0
			if ap.Proc != ai.Proc {
				comm = m.comm(g, p, id)
			}
			if t := ap.Deadline + comm; t > rel {
				rel = t
			}
		}
		ai.Release = rel
	}
}

// criticalStructure finds the tasks with zero slack in S* and returns η:
// the maximum number of tasks on any critical path of S* (paper §12.2).
// The schedule graph adds same-processor succession edges to the DAG edges.
// critical holds task id's verdict at id-1.
func (m *TrialMapping) criticalStructure(g *dag.Graph) (eta int, critical []bool) {
	makespanEnd := m.JobRelease + m.IdealMakespan
	// Backward pass for latest finish times over the schedule graph.
	type edge struct {
		to   dag.TaskID
		comm float64
	}
	out := make([][]edge, g.Len())
	addEdge := func(a, b dag.TaskID, comm float64) {
		out[a-1] = append(out[a-1], edge{to: b, comm: comm})
	}
	// DAG edges with ω across processors.
	for _, id := range g.TaskIDs() {
		for _, s := range g.Successors(id) {
			comm := 0.0
			if m.Assign[s-1].Proc != m.Assign[id-1].Proc {
				comm = m.comm(g, id, s)
			}
			addEdge(id, s, comm)
		}
	}
	// Same-processor succession edges (zero comm): consecutive tasks in S*
	// start order.
	byProc := make(map[int][]dag.TaskID)
	for _, id := range g.TaskIDs() {
		a := m.Assign[id-1]
		byProc[a.Proc] = append(byProc[a.Proc], id)
	}
	for p := range byProc {
		ids := byProc[p]
		sort.Slice(ids, func(i, j int) bool {
			return m.Assign[ids[i]-1].IdealStart < m.Assign[ids[j]-1].IdealStart
		})
		for i := 1; i < len(ids); i++ {
			addEdge(ids[i-1], ids[i], 0)
		}
	}

	latestFinish := make([]float64, g.Len())
	topo := g.TopologicalOrder()
	// The schedule graph's topological order: sort by S* start time (ties by
	// DAG topo position) — succession edges always go forward in start time.
	pos := make([]int, len(topo))
	for i, id := range topo {
		pos[id-1] = i
	}
	order := append([]dag.TaskID(nil), topo...)
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := m.Assign[order[i]-1].IdealStart, m.Assign[order[j]-1].IdealStart
		if si != sj {
			return si < sj
		}
		return pos[order[i]-1] < pos[order[j]-1]
	})
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		lf := makespanEnd
		for _, e := range out[id-1] {
			durSucc := m.Assign[e.to-1].IdealFinish - m.Assign[e.to-1].IdealStart
			cand := latestFinish[e.to-1] - durSucc - e.comm
			if cand < lf {
				lf = cand
			}
		}
		latestFinish[id-1] = lf
	}
	critical = make([]bool, g.Len())
	for i, a := range m.Assign {
		critical[i] = math.Abs(latestFinish[i]-a.IdealFinish) <= 1e-6
	}
	// η: longest chain (task count) through critical tasks along tight edges.
	chain := make([]int, g.Len())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if !critical[id-1] {
			continue
		}
		best := 0
		for _, e := range out[id-1] {
			if !critical[e.to-1] {
				continue
			}
			tight := math.Abs(m.Assign[e.to-1].IdealStart-(m.Assign[id-1].IdealFinish+e.comm)) <= 1e-6
			if tight && chain[e.to-1] > best {
				best = chain[e.to-1]
			}
		}
		chain[id-1] = best + 1
		eta = max(eta, chain[id-1])
	}
	if eta == 0 {
		eta = 1
	}
	return eta, critical
}

// heaviestCriticalChain finds the maximum sum of weight(t) over chains of
// critical tasks (used by busyness-weighted laxity normalization).
func (m *TrialMapping) heaviestCriticalChain(g *dag.Graph, critical []bool, weight func(dag.TaskID) float64) float64 {
	topo := g.TopologicalOrder()
	best := make([]float64, len(topo))
	var heaviest float64
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		if !critical[id-1] {
			continue
		}
		b := 0.0
		for _, s := range g.Successors(id) {
			if critical[s-1] && best[s-1] > b {
				b = best[s-1]
			}
		}
		best[id-1] = b + weight(id)
		if best[id-1] > heaviest {
			heaviest = best[id-1]
		}
	}
	return heaviest
}

// trimProcs drops unused logical processors and renumbers assignments so
// |U| counts only processors that actually received tasks.
func (m *TrialMapping) trimProcs(procs []ProcInfo) {
	used := make(map[int]bool)
	for _, a := range m.Assign {
		used[a.Proc] = true
	}
	remap := make(map[int]int, len(used))
	for i := range procs {
		if used[i] {
			remap[i] = len(m.Procs)
			m.Procs = append(m.Procs, procs[i])
		}
	}
	for i := range m.Assign {
		m.Assign[i].Proc = remap[m.Assign[i].Proc]
	}
}

// NumProcs reports |U|.
func (m *TrialMapping) NumProcs() int { return len(m.Procs) }
