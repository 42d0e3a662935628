package core

import (
	"fmt"

	"repro/internal/core/membership"
	"repro/internal/core/policy"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

// Config controls a cluster of RTDS sites.
type Config struct {
	// Radius is h, the hop radius of the Potential Computing Sphere (§6).
	Radius int
	// Preemptive selects the §13 preemptive local scheduler.
	Preemptive bool
	// LocalOnly disables distribution entirely: jobs that fail the local
	// test are rejected (the baseline RTDS is compared against).
	LocalOnly bool
	// EnrollSlack is added to the enrollment timeout beyond the round-trip
	// bound 2·ω(PCS); it lets acks that tie with the timer win.
	EnrollSlack float64
	// ReleasePadFactor scales the protocol-latency padding of the job
	// release used by the mapper (§13 "Communication Delays"): the effective
	// release is now + ReleasePadFactor·ω(ACS). It covers the validation
	// round trip plus the dispatch of task codes.
	ReleasePadFactor float64
	// Throughput enables the §13 data-volume model: DAG edges decorated
	// with data volumes add volume/Throughput to the cross-site
	// communication estimate, and result transmission is delayed by the
	// same amount. Zero ignores volumes (the base model).
	Throughput float64
	// Powers optionally assigns per-site computing powers (uniform machines,
	// §13). Empty means identical machines (power 1).
	Powers []float64
	// TraceEvents logs every protocol fact (Cluster.Events). Off, the
	// default, only decisions and anomalies (violations, disruptions) are
	// logged, which keeps long experiment runs lean.
	TraceEvents bool
	// UseLocalKnowledge implements the §13 "local knowledge of k"
	// refinement: the initiator estimates its own availability over the
	// job's actual window instead of the fixed observational window, since
	// it can inspect its own idle intervals exactly.
	UseLocalKnowledge bool
	// Faults arms transport fault injection (message loss, delay jitter,
	// site crashes) after the PCS bootstrap; times in the plan are relative
	// to the post-bootstrap epoch. A faulty cluster additionally arms the
	// protocol's defensive machinery: member lock leases and retransmitted
	// abort unlocks (the validation/commit phase timeouts are always on).
	// Nil (or a plan injecting nothing) runs the faultless paper model.
	Faults *simnet.FaultPlan
	// Policies selects the protocol's pluggable decision points: enrollment
	// fan-out (Sphere), the local guarantee test (Acceptance), case-(iii)
	// laxity scattering (Dispatch) and the trial-mapping heuristic (Mapper).
	// It is the only selector of all four. Zero fields are the paper
	// defaults — FullSphere (HierSphere under Hier, which enrolls the same
	// sphere), EDF, uniform laxity and the CP-EFT heuristic.
	Policies policy.Set
	// KernelWorkers selects the discrete-event kernel backing a simulated
	// cluster. 0 (the default) runs the serial internal/sim engine — the
	// reference semantics. >= 1 runs the conservative parallel kernel
	// (internal/sim/par) with min(KernelWorkers, sites) partitions: sites
	// are sharded across per-core event heaps by a topology-aware
	// partitioner and synchronized with lookahead windows derived from the
	// minimum cross-partition link delay. The parallel kernel reproduces
	// the serial event order — experiment tables and event counts are
	// byte-identical for the same seed at every worker count. Fault plans
	// drawing loss or jitter consume one sequential random stream in global
	// send order, so such plans collapse to a single partition (still the
	// parallel code path, just P=1); crash-only plans parallelize fully.
	// It is the only kernel selector (resolved by simnet.NewKernel) and is
	// ignored by the wall-clock transport (wire).
	KernelWorkers int
	// Hier arms region routing (internal/routing/hier): the topology is
	// partitioned into ~√n connected regions, each site bootstraps an exact
	// table of its own region over its intra-region links, and per-site
	// routing state drops from O(n) to O(√n). Commit spheres are
	// region-local: the PCS, and so every ACS, is confined to the
	// initiator's region, and a site alone in its region rejects what it
	// cannot keep (StageNoSphere). A site of another region has no route,
	// so no message crosses a region boundary. Membership heartbeats and
	// repair floods are scoped to the region too. The same on every host:
	// NewCluster (either kernel), NewLiveCluster and NewNode, where each
	// process derives the regions from the shared topology and a node's
	// links to other regions stay unused.
	// Requires a connected topology like the flat bootstrap.
	Hier bool
	// Membership arms the distributed membership layer: per-site heartbeats
	// with suspicion timeouts, flooded death/resurrection notices,
	// epoch-tagged routing re-floods and the runtime join handshake. When
	// not explicitly enabled but the fault plan injects crashes, the default
	// detector is armed (a horizon covering every planned crash) so failure
	// detection always happens through the protocol. It is the only place
	// failure-detection timing is written; the repair flood's budget is not
	// a setting but derived from Radius (floodRounds). Disabled clusters
	// run the faultless paper model untouched.
	Membership membership.Config
}

// SurplusWindow is the observational window over which a site measures its
// surplus (§2): the unreserved fraction of [now, now+SurplusWindow]. The
// focused-bidding baseline measures its surplus over the same window.
const SurplusWindow float64 = 200

// DefaultConfig returns the configuration used by the experiments unless a
// sweep overrides a field.
func DefaultConfig() Config {
	return Config{
		Radius:           3,
		EnrollSlack:      1e-3,
		ReleasePadFactor: 3,
	}
}

const (
	// codeBytesPerTask is the accounted size of one task's code when
	// dispatched to an executing site (§11).
	codeBytesPerTask = 256
	// resultBytes is the accounted size of one task-result message sent from
	// a predecessor's site to a successor's site during execution.
	resultBytes = 64
)

// validate checks the configuration against the topology it will run on.
func (c Config) validate(topo *graph.Graph) error {
	n := topo.Len()
	if c.Radius < 0 {
		return fmt.Errorf("core: negative sphere radius %d", c.Radius)
	}
	if c.ReleasePadFactor < 0 {
		return fmt.Errorf("core: negative release pad factor %v", c.ReleasePadFactor)
	}
	if len(c.Powers) != 0 && len(c.Powers) != n {
		return fmt.Errorf("core: %d powers for %d sites", len(c.Powers), n)
	}
	for i, p := range c.Powers {
		if p <= 0 {
			return fmt.Errorf("core: site %d has non-positive power %v", i, p)
		}
	}
	if c.KernelWorkers < 0 {
		return fmt.Errorf("core: negative kernel workers %d", c.KernelWorkers)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(n); err != nil {
			return err
		}
	}
	if err := c.Membership.Validate(); err != nil {
		return err
	}
	if !topo.Connected() {
		return fmt.Errorf("core: topology is not connected")
	}
	return nil
}

// membershipConfig resolves the effective membership configuration: the
// explicit Config.Membership when enabled, otherwise a configuration
// derived from a crash-injecting fault plan — the default heartbeat and
// suspicion timing, and a horizon that covers detecting every planned
// crash and recovery, so discrete-event runs drain once the last repair
// settles.
func (c Config) membershipConfig() membership.Config {
	m := c.Membership
	if !m.Enabled {
		if c.Faults == nil || len(c.Faults.Crashes) == 0 {
			return membership.Config{}
		}
		m = membership.Config{Enabled: true}
	}
	if m.Horizon == 0 && c.Faults != nil && len(c.Faults.Crashes) > 0 {
		// Heartbeats must outlive the last planned crash (or recovery) long
		// enough to detect it and settle the repair.
		var last float64
		for _, cr := range c.Faults.Crashes {
			end := cr.At
			if !cr.Permanent() {
				end += cr.For
			}
			if end > last {
				last = end
			}
		}
		timing := m.WithDefaults()
		m.Horizon = last + timing.SuspectAfter + 10*timing.HeartbeatEvery
	}
	return m
}

// floodRounds is the membership repair flood's per-epoch budget: the flat
// bootstrap's round count for the radius, or 5 where the radius needs no
// round. Under Hier it stays the flat count, not a region's.
func (c Config) floodRounds() int {
	if r := routing.RoundsForRadius(c.Radius); r > 0 {
		return r
	}
	return 5
}

func (c Config) power(site int) float64 {
	if len(c.Powers) == 0 {
		return 1
	}
	return c.Powers[site]
}

// The policy resolvers fill nil Policies interfaces with the paper defaults.

func (c Config) spherePolicy() policy.Sphere {
	if c.Policies.Sphere != nil {
		return c.Policies.Sphere
	}
	if c.Hier {
		return policy.HierSphere{}
	}
	return policy.FullSphere{}
}

func (c Config) acceptancePolicy() policy.Acceptance {
	if c.Policies.Acceptance != nil {
		return c.Policies.Acceptance
	}
	return policy.EDF{}
}
