package core

import (
	"time"

	"repro/internal/graph"
)

// What the external tests of this package (package core_test) need of its
// internals. They run live clusters on wire's transport, and wire imports
// core, so only an external test can import both.

var (
	FastLine    = fastLine
	ParJob      = parJob
	ChainJob    = chainJob
	MustCluster = mustCluster
	RunAll      = runAll
	HierTopo    = hierTopo
	NewHost     = newHost
)

func (c *Cluster) StartBootstrap() { c.startBootstrap() }

func (c *Cluster) FinishBootstrap() error { return c.finishBootstrap() }

// FlatTableSites lists the local sites that run a flat routing table.
func (c *Cluster) FlatTableSites() []graph.NodeID {
	var flat []graph.NodeID
	for _, s := range c.local {
		if s.hierTable == nil {
			flat = append(flat, s.id)
		}
	}
	return flat
}

// SetProbeTimeout shortens probeTimeout and returns the restore.
func SetProbeTimeout(d time.Duration) (restore func()) {
	old := probeTimeout
	probeTimeout = d
	return func() { probeTimeout = old }
}
