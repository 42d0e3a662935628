package core

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// LiveCluster is the Cluster host on the goroutine-backed live transport:
// every site local, one goroutine per site, real (scaled) time, genuine
// concurrency. It exists for demonstration and for the DES-equivalence
// tests; experiments use the deterministic Cluster. Submit clamps an
// arrival the wall clock has already passed up to now; site probes (AllIdle,
// ReservationJobIDs, ...) report "no" within probeTimeout after Close.
type LiveCluster struct {
	*Cluster
	live *simnet.Live
}

// NewLiveCluster builds the cluster, starts the transport and runs the
// routing bootstrap (flat, or hierarchical under Config.Hier), blocking until
// it quiesces. scale is the wall-clock duration of one virtual time unit.
func NewLiveCluster(topo *graph.Graph, cfg Config, scale time.Duration) (*LiveCluster, error) {
	if err := cfg.validate(topo); err != nil {
		return nil, err
	}
	live := simnet.NewLive(topo, scale)
	c, err := newHost(topo, cfg, live, everySite(topo.Len()))
	if err != nil {
		return nil, err
	}
	live.Start()
	c.startBootstrap()
	if !live.WaitIdle(30 * time.Second) {
		live.Close()
		return nil, fmt.Errorf("core: live PCS bootstrap did not quiesce")
	}
	if err := c.finishBootstrap(); err != nil {
		live.Close()
		return nil, err
	}
	return &LiveCluster{Cluster: c, live: live}, nil
}

// Wait blocks until the cluster quiesces (all decisions made, executions
// scheduled) or the timeout elapses.
func (lc *LiveCluster) Wait(timeout time.Duration) bool {
	return lc.live.WaitIdle(timeout)
}

// Close shuts down the transport goroutines.
func (lc *LiveCluster) Close() { lc.live.Close() }
