package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
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
		{"malformed gateway-mode nodes", opts{sites: 3, joiner: -1, gatewayURL: "127.0.0.1:1", tenantsSpec: "acme",
			nodesSpec: "127.0.0.1:1"}, "not id=host:port"},
		{"gateway mode with node-mode checks", opts{sites: 3, joiner: -1, gatewayURL: "127.0.0.1:1", tenantsSpec: "acme",
			verifyLive: true, minAgreement: 1}, "-verify-live applies to node mode only"},
		{"gateway mode with an empty tenant", opts{sites: 3, joiner: -1, gatewayURL: "127.0.0.1:1", tenantsSpec: "a,,b"},
			`-tenants "a,,b"`},
	} {
		err := run(tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// fakeJournal serves GET /jobs?since=&boot= the way a node does: pages of at
// most nodeMaxTail decisions, and a stale or missing boot token answered
// from 0. restart replaces the process: a new boot token and an empty
// journal.
type fakeJournal struct {
	mu       sync.Mutex
	boot     string
	jobs     []core.JobStatus
	requests []string // the since= of every request
}

// nodeMaxTail is the page size of a node's journal reply.
const nodeMaxTail = 4096

func (f *fakeJournal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	q := r.URL.Query()
	f.requests = append(f.requests, q.Get("since"))
	cursor, err := strconv.Atoi(q.Get("since"))
	if err != nil || q.Get("boot") != f.boot || cursor > len(f.jobs) {
		cursor = 0
	}
	next := min(len(f.jobs), cursor+nodeMaxTail)
	json.NewEncoder(w).Encode(nodeapi.JournalReply{Boot: f.boot, Next: next, Jobs: f.jobs[cursor:next]})
}

// decide appends n decisions, the first of them job j<from>@0.
func (f *fakeJournal) decide(from, n int, outcome string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := from; i < from+n; i++ {
		f.jobs = append(f.jobs, core.JobStatus{ID: fmt.Sprintf("j%d@0", i), OutcomeName: outcome})
	}
}

// asked returns the since= of the requests served since the last call.
func (f *fakeJournal) asked() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.requests
	f.requests = nil
	return r
}

func (f *fakeJournal) restart(boot string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.boot, f.jobs = boot, nil
}

// The journal reader pages past a node's reply cap, then reads only what is
// new, and drops a dead process's decisions when the boot token changes:
// the run then counts those jobs as lost, as it does for every job that
// died with a killed node.
func TestJournalReader(t *testing.T) {
	node := &fakeJournal{boot: "first"}
	node.decide(1, nodeMaxTail+904, "rejected")
	srv := httptest.NewServer(node)
	defer srv.Close()
	client := srv.Client()
	j := &journal{addr: strings.TrimPrefix(srv.URL, "http://")}

	if err := j.read(client); err != nil {
		t.Fatal(err)
	}
	if len(j.decided) != 5000 || j.cursor != 5000 || j.boot != "first" {
		t.Fatalf("first read: %d decisions, cursor %d, boot %q; want 5000, 5000, first", len(j.decided), j.cursor, j.boot)
	}
	if got, want := node.asked(), []string{"0", "4096", "5000"}; !slices.Equal(got, want) {
		t.Fatalf("first read asked since=%v, want %v", got, want)
	}

	node.decide(5001, 10, "accepted-local")
	if err := j.read(client); err != nil {
		t.Fatal(err)
	}
	if len(j.decided) != 5010 || j.decided["j5010@0"].OutcomeName != "accepted-local" {
		t.Fatalf("second read: %d decisions, j5010@0 %+v", len(j.decided), j.decided["j5010@0"])
	}
	if got, want := node.asked(), []string{"5000", "5010"}; !slices.Equal(got, want) {
		t.Fatalf("second read asked since=%v, want %v", got, want)
	}

	// The replacement process numbers its jobs from 1 again.
	node.restart("second")
	node.decide(1, 3, "accepted-distributed")
	if err := j.read(client); err != nil {
		t.Fatal(err)
	}
	if len(j.decided) != 3 || j.boot != "second" || j.cursor != 3 {
		t.Fatalf("after the restart: %d decisions, boot %q, cursor %d; want 3, second, 3", len(j.decided), j.boot, j.cursor)
	}
	for id, st := range j.decided {
		if st.OutcomeName != "accepted-distributed" {
			t.Errorf("%s kept the dead process's decision %q", id, st.OutcomeName)
		}
	}
	// run counts a submitted job with no decision as lost.
	if submitted := 5010 + 3; submitted-len(j.decided) != 5010 {
		t.Errorf("%d jobs lost, want the dead process's 5010", submitted-len(j.decided))
	}

	// A node that stops answering is forgotten, and read from 0 once it
	// answers again.
	srv.Close()
	if err := j.read(client); err == nil || len(j.decided) != 0 || j.cursor != 0 {
		t.Fatalf("read of a closed node: err %v, %d decisions, cursor %d", err, len(j.decided), j.cursor)
	}
}
