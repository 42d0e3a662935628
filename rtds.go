package rtds

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/core/policy"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/scheme"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Core protocol types, re-exported for users of the facade.
type (
	// Cluster is a simulated network of RTDS sites (deterministic
	// discrete-event time).
	Cluster = core.Cluster
	// LiveCluster runs the same protocol on real goroutines and channels.
	LiveCluster = core.LiveCluster
	// Config tunes a cluster; start from DefaultConfig.
	Config = core.Config
	// Job is one submitted job's record.
	Job = core.Job
	// Outcome is a job's fate (accepted locally/distributed, rejected).
	Outcome = core.Outcome
	// Summary aggregates a run.
	Summary = core.Summary

	// Network is the communication topology.
	Network = graph.Graph
	// NodeID identifies a site.
	NodeID = graph.NodeID
	// DelayRange bounds generated link delays.
	DelayRange = graph.DelayRange

	// DAG is a job's precedence graph.
	DAG = dag.Graph
	// TaskID identifies a task within one job.
	TaskID = dag.TaskID

	// Heuristic names a mapper processor-selection rule; HeuristicMapper
	// carries one into Config.Policies.
	Heuristic = mapper.Heuristic

	// Workload describes a sporadic arrival process.
	Workload = workload.Spec
	// Arrival is one generated job arrival.
	Arrival = workload.Arrival

	// FaultPlan injects message loss, delay jitter and site crashes into a
	// cluster's transport (set Config.Faults; times are relative to the
	// post-bootstrap epoch).
	FaultPlan = simnet.FaultPlan
	// Crash is one site outage window of a FaultPlan.
	Crash = simnet.Crash

	// Scheme is one registered scheduling algorithm (rtds, rtds-hier,
	// broadcast, local, fab, oracle); BuildScheme constructs one by name.
	Scheme = scheme.Scheme
	// SchemeConfig is the scheme-independent run configuration.
	SchemeConfig = scheme.Config
	// SchemeCluster is a runnable scheme instance.
	SchemeCluster = scheme.Cluster
	// SchemeResult is the scheme-independent run summary.
	SchemeResult = scheme.Result

	// PolicySet plugs alternative protocol policies into Config.Policies:
	// enrollment fan-out, local acceptance, laxity dispatch, mapper choice.
	PolicySet = policy.Set
	// SpherePolicy selects the enrollment fan-out (§8).
	SpherePolicy = policy.Sphere
	// AcceptancePolicy is the local guarantee test (§5).
	AcceptancePolicy = policy.Acceptance
	// FullSphere enrolls the whole sphere (the paper default).
	FullSphere = policy.FullSphere
	// KRedundant caps enrollment at the K nearest sphere members.
	KRedundant = policy.KRedundant
	// EDFAcceptance is the paper's local test.
	EDFAcceptance = policy.EDF
	// LaxityThreshold requires Theta of the window as end-to-end laxity
	// before accepting locally.
	LaxityThreshold = policy.LaxityThreshold
	// HeuristicMapper picks the trial-mapping heuristic (§9); the zero
	// value is the paper's CP-EFT.
	HeuristicMapper = policy.HeuristicMapper
	// UniformDispatch scatters case-(iii) laxity evenly (§12.2, the default).
	UniformDispatch = policy.UniformDispatch
	// WeightedDispatch gives tasks on busy processors more laxity (§13).
	WeightedDispatch = policy.WeightedDispatch
)

// Job outcomes.
const (
	Pending             = core.Pending
	AcceptedLocal       = core.AcceptedLocal
	AcceptedDistributed = core.AcceptedDistributed
	Rejected            = core.Rejected
)

// Mapper heuristics for HeuristicMapper.H (paper §12 instance first).
const (
	HeuristicCPEFT       = mapper.HeuristicCPEFT
	HeuristicMinMin      = mapper.HeuristicMinMin
	HeuristicBestSurplus = mapper.HeuristicBestSurplus
	HeuristicRoundRobin  = mapper.HeuristicRoundRobin
)

// DefaultConfig returns the configuration the experiments use.
func DefaultConfig() Config { return core.DefaultConfig() }

// SchemeNames lists the registered scheduling schemes in sorted order.
func SchemeNames() []string { return scheme.Names() }

// GetScheme looks a scheme up by name.
func GetScheme(name string) (Scheme, bool) { return scheme.Get(name) }

// BuildScheme constructs a runnable cluster of the named scheme over the
// topology — the one-registry way to compare algorithms:
//
//	c, err := rtds.BuildScheme("broadcast", topo, rtds.SchemeConfig{})
func BuildScheme(name string, topo *Network, cfg SchemeConfig) (SchemeCluster, error) {
	s, ok := scheme.Get(name)
	if !ok {
		return nil, fmt.Errorf("rtds: unknown scheme %q (have %v)", name, scheme.Names())
	}
	return s.Build(topo, cfg)
}

// NewCluster builds a cluster over the topology and runs the one-time PCS
// construction (paper §7).
func NewCluster(topo *Network, cfg Config) (*Cluster, error) {
	return core.NewCluster(topo, cfg)
}

// NewLiveCluster is NewCluster on the goroutine-backed transport; scale is
// the wall-clock duration of one virtual time unit.
func NewLiveCluster(topo *Network, cfg Config, scale time.Duration) (*LiveCluster, error) {
	return core.NewLiveCluster(topo, cfg, scale)
}

// NewNetwork returns an empty topology with n sites; join sites with
// AddLink (method AddEdge on Network).
func NewNetwork(n int) *Network { return graph.New(n) }

// NewRandomNetwork returns a connected random topology with roughly the
// given average degree and link delays in [0.05, 0.3].
func NewRandomNetwork(n int, avgDegree float64, seed int64) *Network {
	return graph.RandomConnected(n, avgDegree, graph.DelayRange{Min: 0.05, Max: 0.3}, seed)
}

// NewRingNetwork, NewGridNetwork and NewTreeNetwork build classic shapes
// with the given delay range.
func NewRingNetwork(n int, delays DelayRange, seed int64) *Network {
	return graph.Ring(n, delays, seed)
}

// NewGridNetwork builds a rows x cols mesh.
func NewGridNetwork(rows, cols int, delays DelayRange, seed int64) *Network {
	return graph.Grid(rows, cols, delays, seed)
}

// NewTreeNetwork builds a random tree.
func NewTreeNetwork(n int, delays DelayRange, seed int64) *Network {
	return graph.RandomTree(n, delays, seed)
}

// JobBuilder builds a job DAG fluently.
type JobBuilder struct {
	b *dag.Builder
}

// NewJob starts a job DAG with the given name.
func NewJob(name string) *JobBuilder {
	return &JobBuilder{b: dag.NewBuilder(name)}
}

// Task declares a task with its computational complexity.
func (jb *JobBuilder) Task(id TaskID, complexity float64) *JobBuilder {
	jb.b.AddTask(id, complexity)
	return jb
}

// Edge declares a precedence constraint from -> to.
func (jb *JobBuilder) Edge(from, to TaskID) *JobBuilder {
	jb.b.AddEdge(from, to)
	return jb
}

// Build validates the DAG.
func (jb *JobBuilder) Build() (*DAG, error) { return jb.b.Build() }

// MustBuild is Build but panics on error.
func (jb *JobBuilder) MustBuild() *DAG { return jb.b.MustBuild() }

// GenerateWorkload draws a sporadic arrival sequence from the spec.
func GenerateWorkload(spec Workload) ([]Arrival, error) { return workload.Generate(spec) }

// SubmitAll submits a generated arrival sequence to a cluster.
func SubmitAll(c *Cluster, arrivals []Arrival) error {
	for _, a := range arrivals {
		if _, err := c.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			return err
		}
	}
	return nil
}
