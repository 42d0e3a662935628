package core

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// LiveTransport is the wall-clock transport a LiveCluster runs on: every
// site of the topology hosted in this process, each on its own execution
// goroutine, in real (scaled) time. wire.ListenLocal builds one; this
// package cannot, as wire imports it.
type LiveTransport interface {
	simnet.Transport
	// Start begins delivering traffic and running timers; every site is
	// attached before.
	Start()
	// WaitIdle blocks until no message, handler or timer is in flight, or
	// the timeout elapses, and reports whether quiescence was reached.
	WaitIdle(timeout time.Duration) bool
	// Close stops the transport; it is idempotent.
	Close()
}

// LiveCluster is the Cluster host on a wall-clock transport: every site
// local, real (scaled) time, genuine concurrency. It exists for
// demonstration and for the DES-equivalence tests; experiments use the
// deterministic Cluster. Submit clamps an arrival the wall clock has already
// passed up to now; site probes (Idle, ReservationJobIDs, ...) report
// "no" within probeTimeout after Close.
type LiveCluster struct {
	*Cluster
	tr LiveTransport
}

// NewLiveCluster builds the cluster on tr, starts it and runs the routing
// bootstrap (flat, or hierarchical under Config.Hier), blocking until it
// quiesces. The cluster owns tr from here on: it is closed on error and by
// Close.
func NewLiveCluster(topo *graph.Graph, cfg Config, tr LiveTransport) (*LiveCluster, error) {
	c, err := func() (*Cluster, error) {
		if err := cfg.validate(topo); err != nil {
			return nil, err
		}
		c, err := newHost(topo, cfg, tr, everySite(topo.Len()))
		if err != nil {
			return nil, err
		}
		tr.Start()
		c.startBootstrap()
		if !tr.WaitIdle(30 * time.Second) {
			return nil, fmt.Errorf("core: live PCS bootstrap did not quiesce")
		}
		return c, c.finishBootstrap()
	}()
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &LiveCluster{Cluster: c, tr: tr}, nil
}

// Wait blocks until the cluster quiesces (all decisions made, executions
// scheduled) or the timeout elapses.
func (lc *LiveCluster) Wait(timeout time.Duration) bool {
	return lc.tr.WaitIdle(timeout)
}

// Close shuts down the transport.
func (lc *LiveCluster) Close() { lc.tr.Close() }
