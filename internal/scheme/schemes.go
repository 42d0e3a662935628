package scheme

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
)

// The built-in schemes. "rtds" is the paper's radius-3 configuration;
// "broadcast" and "local" are the two ablations the paper argues against,
// "rtds-hier" is the wide-network variant, and "fab" and "oracle" are the
// external baselines.
func init() {
	Register(coreScheme{
		name: "rtds",
		desc: "the paper's protocol: radius-3 computing sphere, EDF local test, CP-EFT mapper",
		base: func(*graph.Graph) core.Config { return core.DefaultConfig() },
	})
	Register(coreScheme{
		name: "broadcast",
		desc: "BroadcastSphere ablation: the sphere covers the whole network (no locality limit)",
		base: func(topo *graph.Graph) core.Config {
			cfg := core.DefaultConfig()
			// Hop diameter bound: any connected graph's diameter < N.
			cfg.Radius = topo.Len()
			return cfg
		},
	})
	Register(coreScheme{
		name: "local",
		desc: "local-only ablation: jobs that fail the local test are rejected, never distributed",
		base: func(*graph.Graph) core.Config {
			cfg := core.DefaultConfig()
			cfg.LocalOnly = true
			return cfg
		},
	})
	Register(coreScheme{
		name: "rtds-hier",
		desc: "hierarchical variant: √n regions, landmark routing, region-first commit spheres with escalation",
		base: func(*graph.Graph) core.Config {
			cfg := core.DefaultConfig()
			cfg.Hier = true
			return cfg
		},
	})
	Register(fabScheme{})
	Register(oracleScheme{})
}

// ---------------------------------------------------------------------------
// RTDS-core schemes

// coreScheme builds clusters on the RTDS protocol core from a per-scheme
// base configuration; Config.Tune applies experiment-specific overrides on
// top of the base.
type coreScheme struct {
	name string
	desc string
	base func(topo *graph.Graph) core.Config
}

func (s coreScheme) Name() string        { return s.name }
func (s coreScheme) Description() string { return s.desc }

func (s coreScheme) Build(topo *graph.Graph, cfg Config) (Cluster, error) {
	cc := s.base(topo)
	cc.Faults = cfg.Faults
	cc.KernelWorkers = cfg.KernelWorkers
	if cfg.Tune != nil {
		cfg.Tune(&cc)
	}
	c, err := core.NewCluster(topo, cc)
	if err != nil {
		return nil, err
	}
	return &coreCluster{c: c}, nil
}

type coreCluster struct{ c *core.Cluster }

func (w *coreCluster) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) error {
	_, err := w.c.Submit(at, origin, g, relDeadline)
	return err
}

func (w *coreCluster) Run() error {
	if err := w.c.Run(); err != nil {
		return err
	}
	if v := w.c.Violations(); len(v) > 0 {
		return fmt.Errorf("scheme: causality violations: %v", v[0])
	}
	return nil
}

func (w *coreCluster) Summarize() Result {
	sum := w.c.Summarize()
	return Result{
		Jobs:           sum.Submitted,
		GuaranteeRatio: sum.GuaranteeRatio,
		Messages:       sum.Messages,
		Bytes:          sum.Bytes,
		MessagesPerJob: sum.MessagesPerJob,
		Core:           &sum,
	}
}

func (w *coreCluster) EventsProcessed() int64                 { return w.c.EventsProcessed() }
func (w *coreCluster) BootstrapCost() (messages, bytes int64) { return w.c.BootstrapCost() }
func (w *coreCluster) Core() *core.Cluster                    { return w.c }

// ---------------------------------------------------------------------------
// Focused addressing + bidding baseline

type fabScheme struct{}

func (fabScheme) Name() string { return "fab" }
func (fabScheme) Description() string {
	return "focused-addressing/bidding baseline (central-table routing, surplus floods, RFB auctions)"
}

func (fabScheme) Build(topo *graph.Graph, cfg Config) (Cluster, error) {
	bc := baseline.DefaultConfig(cfg.Horizon)
	bc.Faults = cfg.Faults
	c, err := baseline.NewCluster(topo, bc)
	if err != nil {
		return nil, err
	}
	return &fabCluster{c: c}, nil
}

type fabCluster struct{ c *baseline.Cluster }

func (w *fabCluster) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) error {
	_, err := w.c.Submit(at, origin, g, relDeadline)
	return err
}

func (w *fabCluster) Run() error { return w.c.Run() }

func (w *fabCluster) Summarize() Result {
	n := len(w.c.Jobs())
	res := Result{
		Jobs:     n,
		Messages: w.c.Stats().Messages(),
		Bytes:    w.c.Stats().Bytes(),
	}
	if n > 0 {
		res.GuaranteeRatio = w.c.GuaranteeRatio()
		res.MessagesPerJob = float64(res.Messages) / float64(n)
	}
	return res
}

func (w *fabCluster) EventsProcessed() int64 { return w.c.EventsProcessed() }

// ---------------------------------------------------------------------------
// Clairvoyant oracle

type oracleScheme struct{}

func (oracleScheme) Name() string { return "oracle" }
func (oracleScheme) Description() string {
	return "clairvoyant centralized upper bound: exact global knowledge, zero latency and message cost"
}

func (oracleScheme) Build(topo *graph.Graph, _ Config) (Cluster, error) {
	return &oracleCluster{o: baseline.NewOracle(topo)}, nil
}

type oracleCluster struct{ o *baseline.Oracle }

func (w *oracleCluster) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) error {
	w.o.Submit(at, origin, g, relDeadline)
	return nil
}

// Run is a no-op: the oracle decides at submission time.
func (w *oracleCluster) Run() error { return nil }

func (w *oracleCluster) Summarize() Result {
	return Result{Jobs: len(w.o.Jobs()), GuaranteeRatio: w.o.GuaranteeRatio()}
}

func (w *oracleCluster) EventsProcessed() int64 { return 0 }
