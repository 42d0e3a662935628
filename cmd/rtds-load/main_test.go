package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/nodeapi"
	"repro/internal/scheme"
	"repro/internal/wire"
)

// startCluster boots a sites-node rtds cluster the way cmd/rtds-node does —
// the topology rtds-load regenerates from (kind, sites, seed), one
// core.Node per site over loopback TCP, its control API behind httptest —
// and returns the -nodes spec that reaches it.
func startCluster(t *testing.T, o opts) string {
	t.Helper()
	topo, err := graph.Generate(graph.TopologyKind(o.topoKind), o.sites, experiments.StdDelays, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := scheme.CoreConfig(o.schemeName, topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EnrollSlack = o.slack
	cfg.ReleasePadFactor = o.pad

	trs := make([]*wire.NetTransport, o.sites)
	addrs := make(map[graph.NodeID]string)
	for id := range trs {
		tr, err := wire.Listen(wire.NetConfig{
			Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", Scale: o.scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[id] = tr
		addrs[graph.NodeID(id)] = tr.Addr()
	}
	nodes := make([]*core.Node, o.sites)
	for id, tr := range trs {
		tr.SetPeers(addrs)
		if nodes[id], err = core.NewNode(topo, cfg, tr, graph.NodeID(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range trs {
		tr.Start()
	}
	for _, node := range nodes {
		node.StartBootstrap()
	}
	var spec []string
	for id, node := range nodes {
		if !node.WaitReady(30 * time.Second) {
			t.Fatalf("node %d bootstrap stalled", id)
		}
		node.Seal()
		api := nodeapi.New(node)
		api.SetReady()
		srv := httptest.NewServer(api)
		t.Cleanup(srv.Close)
		spec = append(spec, fmt.Sprintf("%d=%s", id, strings.TrimPrefix(srv.URL, "http://")))
	}
	return strings.Join(spec, ",")
}

// Node mode end to end: a paced Std-spec workload through three nodes' HTTP
// APIs, every job decided, the leak check clean, and the live replay paired
// with every arrival. The agreement itself is wall-clock sensitive; its 1.0
// floor is the nightly soak's gate, here it only has to have been computed.
func TestRunNodeModeReport(t *testing.T) {
	o := opts{
		sites: 3, topoKind: "ring", seed: 1,
		jobs: 30, load: 0.6, horizon: 400, scale: time.Millisecond,
		schemeName: "rtds", slack: 8, pad: 30,
		verifyLive: true, timeout: time.Minute, joiner: -1,
		jsonOut: filepath.Join(t.TempDir(), "report.json"),
	}
	o.nodesSpec = startCluster(t, o)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sites != 3 || rep.Jobs != o.jobs || rep.Undecided != 0 {
		t.Errorf("%d sites, %d jobs, %d undecided; want 3, %d, 0", rep.Sites, rep.Jobs, rep.Undecided, o.jobs)
	}
	if rep.Accepted == 0 || rep.GuaranteeRatio != float64(rep.Accepted)/float64(rep.Jobs) {
		t.Errorf("guarantee ratio %v with %d of %d accepted", rep.GuaranteeRatio, rep.Accepted, rep.Jobs)
	}
	if rep.Violations != 0 || len(rep.LeakedReservations) != 0 || rep.LostJobs != 0 || rep.SkippedSubmissions != 0 {
		t.Errorf("unclean run: %+v", rep)
	}
	if rep.MsgsPerJob <= 0 || rep.DecisionLatencyP99 < rep.DecisionLatencyP50 {
		t.Errorf("msgs/job %v, latency p50 %v p99 %v", rep.MsgsPerJob, rep.DecisionLatencyP50, rep.DecisionLatencyP99)
	}
	if !rep.LiveVerified || rep.LiveAgreement <= 0 || rep.LiveAgreementStrict > rep.LiveAgreement {
		t.Errorf("live replay: verified %v, agreement %v (strict %v)", rep.LiveVerified, rep.LiveAgreement, rep.LiveAgreementStrict)
	}

	// The nodes now hold this run's jobs; a second run must refuse them
	// rather than fold them into its report.
	if err := run(o); err == nil || !strings.Contains(err.Error(), "earlier run") {
		t.Errorf("second run over used nodes: %v", err)
	}
}

// Option combinations run refuses before it touches the network.
func TestRunRefusesBadOptions(t *testing.T) {
	const nodes = "0=127.0.0.1:1,1=127.0.0.1:1,2=127.0.0.1:1"
	for _, tc := range []struct {
		name string
		o    opts
		want string
	}{
		{"no nodes", opts{sites: 3, joiner: -1}, "-nodes is required"},
		{"malformed nodes", opts{sites: 3, joiner: -1, nodesSpec: "0:127.0.0.1:1"}, "not id=host:port"},
		{"node id out of range", opts{sites: 3, joiner: -1, nodesSpec: nodes + ",3=127.0.0.1:1"}, "out of range"},
		{"missing node", opts{sites: 3, joiner: -1, nodesSpec: "0=127.0.0.1:1,2=127.0.0.1:1"}, "missing site 1"},
		{"optional site out of range", opts{sites: 3, joiner: -1, nodesSpec: nodes, optionalSpec: "7"}, "out of range"},
		{"churn with verify-live", opts{sites: 3, joiner: -1, nodesSpec: nodes, optionalSpec: "2", verifyLive: true},
			"cannot be combined"},
		{"joiner out of range", opts{sites: 3, joiner: 3, nodesSpec: nodes}, "-joiner 3 out of range"},
	} {
		err := run(tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
