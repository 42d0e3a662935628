// Package policy defines the pluggable decision points of the RTDS
// protocol core. The paper fixes one choice per axis (enroll the whole
// sphere, accept on a plain EDF insertion test, scatter laxity uniformly,
// map with CP-EFT); this package names each axis so alternatives —
// communication-aware placement, admission thresholds, bounded enrollment
// redundancy — can be swept without editing the protocol state machine.
//
// Four axes are defined:
//
//   - Sphere: which sphere members an initiator enrolls (fan-out and
//     redundancy of the ACS construction, §8), an interface;
//   - Acceptance: the local guarantee test run before distribution (§5),
//     an interface;
//   - Dispatch: how case-(iii) laxity is scattered over the trial mapping
//     (§12.2 and the §13 generalization), a mapper.LaxityMode;
//   - Mapper: the list-scheduling heuristic of the trial mapping (§9), a
//     mapper.Heuristic.
//
// The zero Set resolves to the paper's defaults, and the defaults are
// bit-exact with the historical hard-wired behavior: a cluster built with
// an empty Set replays the same protocol schedule event for event.
package policy

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/schedule"
)

// Set bundles one concrete choice per policy axis. Zero fields select the
// paper defaults (FullSphere, EDF, mapper.LaxityUniform, mapper.HeuristicCPEFT);
// it is the only place a cluster's choice on any of the four axes is written.
type Set struct {
	Sphere     Sphere
	Acceptance Acceptance
	Dispatch   mapper.LaxityMode
	Mapper     mapper.Heuristic
}

// ---------------------------------------------------------------------------
// Sphere: enrollment fan-out (§8)

// Sphere decides the enrollment fan-out of a new transaction: which members
// of the initiator's Potential Computing Sphere receive an enrollment
// request. The sphere itself (its radius, hence its growth) is fixed by
// Config.Radius at bootstrap; this axis controls how much of it one
// transaction tries to lock.
type Sphere interface {
	Name() string
	// EnrollSet selects the members to enroll. pcs is the site's
	// precomputed sphere in ascending site order (self excluded); dist
	// reports the known delay to a member. Implementations must not mutate
	// pcs; returning it unchanged keeps the paper's full-sphere behavior.
	//
	// EnrollSet is invoked once per routing-table adoption (bootstrap and
	// route repair), not once per job — the site caches the result for the
	// enrollment hot path — so it must be a pure function of (pcs, dist).
	EnrollSet(pcs []graph.NodeID, dist func(graph.NodeID) float64) []graph.NodeID
}

// FullSphere is the paper's behavior: every sphere member is enrolled.
type FullSphere struct{}

// Name implements Sphere.
func (FullSphere) Name() string { return "full-sphere" }

// EnrollSet implements Sphere: the sphere, unchanged.
func (FullSphere) EnrollSet(pcs []graph.NodeID, _ func(graph.NodeID) float64) []graph.NodeID {
	return pcs
}

// KRedundant caps the enrollment fan-out at the K nearest sphere members —
// K is the degree of redundancy the initiator pays for: enough candidate
// processors to survive refusals, without locking (and messaging) a whole
// wide sphere for every job. With K at or above the sphere size it
// degenerates to FullSphere.
type KRedundant struct{ K int }

// Name implements Sphere.
func (p KRedundant) Name() string { return fmt.Sprintf("k-redundant-%d", p.K) }

// EnrollSet implements Sphere: the K delay-nearest members, returned in
// ascending site order so the enrollment sends stay deterministic.
func (p KRedundant) EnrollSet(pcs []graph.NodeID, dist func(graph.NodeID) float64) []graph.NodeID {
	if p.K <= 0 || len(pcs) <= p.K {
		return pcs
	}
	nearest := append([]graph.NodeID(nil), pcs...)
	sort.SliceStable(nearest, func(i, j int) bool {
		di, dj := dist(nearest[i]), dist(nearest[j])
		if di != dj {
			return di < dj
		}
		return nearest[i] < nearest[j]
	})
	set := nearest[:p.K]
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

// HierSphere is the default Sphere under hierarchical routing. It enrolls
// the precomputed sphere unchanged, as FullSphere does: the hierarchical
// table's Sphere() walks intra-region routes only, so the sphere is already
// confined to the initiator's region, and no enrollment ever leaves it. The
// type only names that behavior; its EnrollSet is FullSphere's.
type HierSphere struct{}

// Name implements Sphere.
func (HierSphere) Name() string { return "hier-region" }

// EnrollSet implements Sphere: the (region-scoped) sphere, unchanged.
func (HierSphere) EnrollSet(pcs []graph.NodeID, _ func(graph.NodeID) float64) []graph.NodeID {
	return pcs
}

// ---------------------------------------------------------------------------
// Acceptance: the local guarantee test (§5)

// Acceptance is the local guarantee test: can the whole DAG be scheduled on
// this site's plan before the deadline? A successful test returns the
// admission ticket to commit; a failed test sends the job to distribution.
type Acceptance interface {
	Name() string
	// LocalTest tries to place the whole DAG in the gaps of plan. now is
	// the current virtual time, jobID stamps the requests (the plan cancels
	// reservations by job), arrival and deadline are the job's absolute
	// window, power the site's computing power.
	LocalTest(plan schedule.Plan, now float64, jobID string, g *dag.Graph, arrival, deadline, power float64) (*schedule.Ticket, bool)
}

// EDF is the paper's local test: schedule the entire DAG in the gaps of the
// site's plan before the job deadline, placing tasks in the §12 priority
// order and deriving each release from its predecessors' completions.
type EDF struct{}

// Name implements Acceptance.
func (EDF) Name() string { return "edf" }

// LocalTest implements Acceptance.
func (EDF) LocalTest(plan schedule.Plan, now float64, jobID string, g *dag.Graph, arrival, deadline, power float64) (*schedule.Ticket, bool) {
	sess, _, ok := edfPlace(plan, now, jobID, g, arrival, deadline, power)
	if !ok {
		return nil, false
	}
	return sess.Ticket(), true
}

// edfPlace runs the §12-priority-order insertion and reports the session
// and the DAG's completion time. Shared by EDF and LaxityThreshold.
func edfPlace(plan schedule.Plan, now float64, jobID string, g *dag.Graph, arrival, deadline, power float64) (schedule.PlacementSession, float64, bool) {
	sess := plan.NewSession(now)
	var finish float64
	for _, id := range g.PriorityOrder() {
		rel := arrival
		if now > rel {
			rel = now
		}
		for _, p := range g.Predecessors(id) {
			c, ok := sess.Completion(int(p))
			if !ok {
				panic("policy: predecessor not placed before successor")
			}
			if c > rel {
				rel = c
			}
		}
		req := schedule.Request{
			Job:      jobID,
			Task:     int(id),
			Release:  rel,
			Deadline: deadline,
			Duration: g.Complexity(id) / power,
		}
		if _, ok := sess.Place(req); !ok {
			return nil, 0, false
		}
		if c, ok := sess.Completion(int(id)); ok && c > finish {
			finish = c
		}
	}
	return sess, finish, true
}

// LaxityThreshold accepts a local guarantee only when it leaves at least
// Theta of the job's window as end-to-end laxity. Borderline jobs — ones
// EDF would wedge against their deadline on an already busy site — are
// pushed to the sphere instead, where the mapper can spread them; it
// promotes the laxity lens of experiment E5 from a mapper diagnostic to an
// admission policy. Theta 0 degenerates to EDF.
type LaxityThreshold struct{ Theta float64 }

// Name implements Acceptance.
func (p LaxityThreshold) Name() string { return fmt.Sprintf("laxity-%.2f", p.Theta) }

// LocalTest implements Acceptance.
func (p LaxityThreshold) LocalTest(plan schedule.Plan, now float64, jobID string, g *dag.Graph, arrival, deadline, power float64) (*schedule.Ticket, bool) {
	sess, finish, ok := edfPlace(plan, now, jobID, g, arrival, deadline, power)
	if !ok {
		return nil, false
	}
	if deadline-finish < p.Theta*(deadline-arrival) {
		return nil, false
	}
	return sess.Ticket(), true
}
