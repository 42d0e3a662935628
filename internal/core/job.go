package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/graph"
)

// Outcome is the final fate of a submitted job.
type Outcome int

const (
	// Pending: no decision yet.
	Pending Outcome = iota
	// AcceptedLocal: the whole DAG was guaranteed on the arrival site (§5).
	AcceptedLocal
	// AcceptedDistributed: guaranteed across the ACS via trial mapping,
	// validation and the coupling permutation (§9–§11).
	AcceptedDistributed
	// Rejected: the system could not guarantee the deadline.
	Rejected
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Pending:
		return "pending"
	case AcceptedLocal:
		return "accepted-local"
	case AcceptedDistributed:
		return "accepted-distributed"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// RejectStage names the protocol stage at which a job was turned away. It
// is a named type so switches over it fall under the exhaustive analyzer
// and so a stage can't be confused with an arbitrary string; schemes
// outside the RTDS protocol may still mint their own values (it is an open
// string enum, e.g. the baselines' "no-candidates").
type RejectStage string

// Rejection stages, recorded for diagnosis and the experiment breakdowns.
const (
	StageLocalOnly RejectStage = "local-only" // local test failed and distribution is off
	StageNoSphere  RejectStage = "no-sphere"  // PCS is empty (radius 0, isolated site, one-site region)
	StageEmptyACS  RejectStage = "empty-acs"  // nobody enrolled before the window closed
	StageMapper    RejectStage = "mapper"     // case (i) or inconsistent windows
	StageMatching  RejectStage = "matching"   // maximum coupling smaller than |U|
	StageCommit    RejectStage = "commit"     // a site could not honour its validated slots

	// Timeout stages: the phase window expired before every answer arrived
	// (lost messages, crashed members or excessive delay).
	StageValidateTimeout RejectStage = "validate-timeout"
	StageCommitTimeout   RejectStage = "commit-timeout"
)

// Job is one sporadic real-time job: a DAG with an arrival site, arrival
// time and absolute deadline. The zero value is not valid; Cluster.Submit
// creates jobs.
type Job struct {
	ID          string
	Graph       *dag.Graph
	Origin      graph.NodeID
	Arrival     float64 // absolute virtual time
	AbsDeadline float64

	Outcome     Outcome
	RejectStage RejectStage
	DecisionAt  float64 // when the accept/reject decision was made
	CompletedAt float64 // when the last task finished (accepted jobs)
	Done        bool    // all tasks completed

	ACSSize  int // members enrolled (initiator included), 0 if never distributed
	NumProcs int // |U| of the accepted mapping

	taskDone  []bool // task id completed at id-1 (initiator's view)
	tasksLeft int    // tasks not yet completed
}

// Window is the job's relative deadline d − r.
func (j *Job) Window() float64 { return j.AbsDeadline - j.Arrival }

// Accepted reports whether the job was guaranteed.
func (j *Job) Accepted() bool {
	return j.Outcome == AcceptedLocal || j.Outcome == AcceptedDistributed
}

// MetDeadline reports whether the job completed within its deadline.
func (j *Job) MetDeadline() bool {
	return j.Done && j.CompletedAt <= j.AbsDeadline+1e-9
}
