package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nodeapi"
	"repro/internal/wire"
)

// onceBackend decides every job at once and reports each verdict exactly
// once, as a journal reader does. inSubmit, when set, runs inside Submit
// with the ID the call is about to return: the moment at which the cluster
// knows the job and the gateway does not yet.
type onceBackend struct {
	mu         sync.Mutex
	next       int
	unreported map[string]BackendDecision
	inSubmit   func(id string)
}

func (b *onceBackend) Submit(at, deadline float64, graph json.RawMessage) (string, error) {
	b.mu.Lock()
	b.next++
	id := fmt.Sprintf("o%d@0", b.next)
	if b.unreported == nil {
		b.unreported = make(map[string]BackendDecision)
	}
	b.unreported[id] = BackendDecision{Outcome: "accepted-local", Latency: 1.5}
	hook := b.inSubmit
	b.mu.Unlock()
	if hook != nil {
		hook(id)
	}
	return id, nil
}

func (b *onceBackend) Decisions() (map[string]BackendDecision, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.unreported
	b.unreported = nil
	return out, nil
}

func (b *onceBackend) Stats() (BackendStats, error) { return BackendStats{ReachableSites: 1}, nil }

// watchedOnceBackend is onceBackend with the DecisionWatcher capability.
type watchedOnceBackend struct {
	onceBackend
	deliver func(map[string]BackendDecision)
	stopped atomic.Bool
}

func (b *watchedOnceBackend) WatchDecisions(deliver func(map[string]BackendDecision)) func() {
	b.deliver = deliver
	return func() { b.stopped.Store(true) }
}

func jobState(t *testing.T, s *Server, id string) Job {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, w.Code)
	}
	var j Job
	if err := json.NewDecoder(w.Result().Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func openForwards(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.forwards)
}

// A node decides a local accept inside the submission, so a verdict can
// reach the gateway before Backend.Submit has returned the job's cluster ID.
// From a backend that reports each verdict once, that verdict must be kept
// and applied when the ID is registered, on the tick's path and on a
// watcher's alike.
func TestVerdictThatOvertakesItsForward(t *testing.T) {
	const body = `{"tenant":"acme","deadline":40,"graph":` + testGraph + `}`

	check := func(t *testing.T, s *Server, reply map[string]any, via string) {
		t.Helper()
		if reply["state"] != StateDecided || reply["outcome"] != "accepted-local" {
			t.Errorf("ack carries %v/%v, want the verdict that overtook the forward", reply["state"], reply["outcome"])
		}
		j := jobState(t, s, reply["id"].(string))
		if j.State != StateDecided || j.Outcome != "accepted-local" || j.DecisionLatency != 1.5 {
			t.Fatalf("job lost its verdict: %+v", j)
		}
		if n := openForwards(s); n != 0 {
			t.Errorf("%d forward windows open with no forward in flight", n)
		}
		text := s.MetricsText()
		for _, want := range []string{
			`rtds_gateway_decisions_observed_total{via="` + via + `"} 1`,
			// The accept instant is stamped before the forward, so even a
			// verdict this early has its latency sample.
			"rtds_gateway_decision_latency_seconds_count 1",
			`rtds_gateway_jobs_inflight{tenant="acme"} 0`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics lack %q", want)
			}
		}
	}

	t.Run("tick", func(t *testing.T) {
		b := &onceBackend{}
		s := newTestServer(t, b, nil, "")
		b.inSubmit = func(string) { s.PollNow() }
		resp, reply := submit(t, s, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %v %v", resp.Status, reply)
		}
		check(t, s, reply, "poll")
	})

	t.Run("watcher", func(t *testing.T) {
		b := &watchedOnceBackend{}
		t.Cleanup(func() { // runs after the server's own cleanup has closed it
			if !b.stopped.Load() {
				t.Error("Close did not stop the backend's deliveries")
			}
		})
		s := newTestServer(t, b, nil, "")
		if b.deliver == nil {
			t.Fatal("the server did not find the backend's DecisionWatcher")
		}
		b.inSubmit = func(string) {
			d, _ := b.Decisions()
			b.deliver(d)
		}
		resp, reply := submit(t, s, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %v %v", resp.Status, reply)
		}
		check(t, s, reply, "watch")
	})

	// Verdicts for cluster IDs this gateway never forwarded (another
	// submitter's jobs, the history a restarted reader walks) are kept only
	// while a forward that could claim them is in flight.
	t.Run("unclaimed verdicts do not accumulate", func(t *testing.T) {
		b := &watchedOnceBackend{}
		s := newTestServer(t, b, nil, "")
		strangers := func(from, n int) map[string]BackendDecision {
			out := make(map[string]BackendDecision, n)
			for i := from; i < from+n; i++ {
				out[fmt.Sprintf("x%d@9", i)] = BackendDecision{Outcome: "rejected"}
			}
			return out
		}
		b.deliver(strangers(0, 1000))
		if n := openForwards(s); n != 0 {
			t.Fatalf("%d windows open with no forward in flight", n)
		}
		held := 0
		b.inSubmit = func(string) {
			b.deliver(strangers(1000, 1000))
			s.mu.Lock()
			for _, w := range s.forwards {
				held += len(w.seen)
			}
			s.mu.Unlock()
		}
		if resp, reply := submit(t, s, body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %v %v", resp.Status, reply)
		}
		if held != 1000 {
			t.Errorf("%d verdicts held during the forward, want the 1000 reported meanwhile", held)
		}
		if n := openForwards(s); n != 0 {
			t.Errorf("%d windows (and what they held) outlived the forward", n)
		}
		s.mu.Lock()
		awaiting := len(s.awaiting)
		s.mu.Unlock()
		if awaiting != 1 {
			t.Errorf("%d jobs awaited, want the one forwarded", awaiting)
		}
	})
}

// ---------------------------------------------------------------------------
// HTTPBackend against real node control planes

// startNodes boots an n-site line cluster of core.Nodes over loopback TCP
// and returns each site's control API. One site alone is a cluster too: it
// accepts what fits locally and rejects the rest (there is no sphere).
func startNodes(t *testing.T, n int) []*nodeapi.Server {
	t.Helper()
	topo := graph.New(n)
	for i := 1; i < n; i++ {
		topo.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), 0.05)
	}
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 4
	cfg.ReleasePadFactor = 30
	trs := make([]*wire.NetTransport, n)
	addrs := make(map[graph.NodeID]string)
	for id := range trs {
		tr, err := wire.Listen(wire.NetConfig{
			Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", Scale: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		trs[id] = tr
		addrs[graph.NodeID(id)] = tr.Addr()
	}
	nodes := make([]*core.Node, n)
	for id, tr := range trs {
		tr.SetPeers(addrs)
		node, err := core.NewNode(topo, cfg, tr, graph.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
	}
	for _, tr := range trs {
		tr.Start()
	}
	for _, node := range nodes {
		node.StartBootstrap()
	}
	apis := make([]*nodeapi.Server, n)
	for id, node := range nodes {
		if !node.WaitReady(30 * time.Second) {
			t.Fatalf("node %d bootstrap stalled", id)
		}
		node.Seal()
		apis[id] = nodeapi.New(node)
		apis[id].SetReady()
	}
	return apis
}

// heldRequests counts the long-polls held at a node.
type heldRequests struct {
	next http.Handler
	n    atomic.Int64
}

func (h *heldRequests) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("wait") {
		h.n.Add(1)
		defer h.n.Add(-1)
	}
	h.next.ServeHTTP(w, r)
}

// swappable lets a test replace the process behind one address.
type swappable struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swappable) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// plainBackend hides every optional capability of a Backend, as a
// three-method decorator does.
type plainBackend struct{ Backend }

func newHTTPGateway(t *testing.T, backend Backend, logPath string, poll time.Duration) *Server {
	t.Helper()
	s, err := New(Options{
		Tenants: map[string]Quota{"acme": {Rate: 1e6, Burst: 1e6}}, Backend: backend, LogPath: logPath,
		PollInterval: poll,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// hugeGraph is one task that does not fit in submitMany's deadline on any
// site: the cluster rejects it, and the laxity gate has no objection.
const hugeGraph = `{"name":"huge","tasks":[{"id":1,"complexity":900}],"edges":[]}`

// submitMany posts n jobs from a few clients at once (every third one the
// cluster must reject) and returns their gateway IDs.
func submitMany(t *testing.T, s *Server, n int) []string {
	t.Helper()
	ids := make([]string, n)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n; i += 4 {
				g := testGraph
				if i%3 == 0 {
					g = hugeGraph
				}
				body := `{"tenant":"acme","deadline":400,"graph":` + g + `}`
				req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				var reply Job
				if err := json.NewDecoder(w.Result().Body).Decode(&reply); err != nil || w.Code != http.StatusAccepted {
					t.Errorf("submit %d: status %d, %v", i, w.Code, err)
					return
				}
				ids[i] = reply.ID
			}
		}()
	}
	wg.Wait()
	return ids
}

// waitDecided polls the gateway until every job is decided.
func waitDecided(t *testing.T, s *Server, ids []string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for _, id := range ids {
		for jobState(t, s, id).State != StateDecided {
			if time.Now().After(deadline) {
				t.Fatalf("job %s not decided within %v: %+v", id, within, jobState(t, s, id))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// waitMetric waits for a line of the exposition: a job reads as decided a
// moment before its decision is counted.
func waitMetric(t *testing.T, s *Server, line string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(s.MetricsText(), line) {
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q:\n%s", line, s.MetricsText())
		}
		time.Sleep(time.Millisecond)
	}
}

// The deployed decision path: watchers and a fast tick read the same
// journals, every verdict arrives, and once nothing is owed no request is
// held at any node, so the nodes shut down at once.
func TestHTTPBackendWatchAndTick(t *testing.T) {
	var nodes []*httptest.Server
	var counts []*heldRequests
	var bases []string
	for _, api := range startNodes(t, 3) {
		h := &heldRequests{next: api}
		ts := httptest.NewServer(h)
		defer ts.Close()
		nodes, counts, bases = append(nodes, ts), append(counts, h), append(bases, ts.URL)
	}
	backend, err := NewHTTPBackend(bases, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := newHTTPGateway(t, backend, filepath.Join(t.TempDir(), "gw.wal"), time.Millisecond)

	const jobs = 90
	ids := submitMany(t, s, jobs)
	waitDecided(t, s, ids, 20*time.Second)
	accepted, rejected := 0, 0
	for _, id := range ids {
		switch j := jobState(t, s, id); j.Outcome {
		case "accepted-local", "accepted-distributed":
			accepted++
		case "rejected":
			rejected++
		default:
			t.Errorf("job %s: outcome %q", id, j.Outcome)
		}
	}
	if accepted != jobs-jobs/3 || rejected != jobs/3 {
		t.Errorf("%d accepted, %d rejected; want %d and %d", accepted, rejected, jobs-jobs/3, jobs/3)
	}
	waitMetric(t, s, fmt.Sprintf("rtds_gateway_decision_latency_seconds_count %d", jobs))
	if text := s.MetricsText(); !strings.Contains(text, `rtds_gateway_decisions_observed_total{via="watch"}`) {
		t.Errorf("no decision came back through a watcher:\n%s", text)
	}

	// Nothing is owed: no request may be held at any node (the fast tick's
	// own reads come and go), so every node shuts down at once.
	for _, nd := range backend.nodes {
		if nd.owing() {
			t.Errorf("%s still owes %v", nd.base, nd.owed)
		}
	}
	time.Sleep(20 * time.Millisecond) // a watcher about to start a read would show now
	for i, ts := range nodes {
		if n := counts[i].n.Load(); n != 0 {
			t.Errorf("node %d: %d long-polls held with nothing owed", i, n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		err := ts.Config.Shutdown(ctx)
		cancel()
		if d := time.Since(start); err != nil || d > 100*time.Millisecond {
			t.Errorf("node %d: Shutdown took %v (%v), want < 100ms", i, d, err)
		}
	}
}

// A node that restarts comes back with an empty journal, a new boot token
// and job IDs that start over. The backend must restart its cursor, stop
// waiting for what the dead process owed, and deliver the new process's
// decisions.
func TestHTTPBackendNodeRestart(t *testing.T) {
	front := &swappable{h: startNodes(t, 1)[0]}
	ts := httptest.NewServer(front)
	defer ts.Close()
	backend, err := NewHTTPBackend([]string{ts.URL}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := newHTTPGateway(t, backend, filepath.Join(t.TempDir(), "gw.wal"), 5*time.Millisecond)

	before := submitMany(t, s, 12)
	waitDecided(t, s, before, 20*time.Second)

	// The process dies owing a decision the gateway waits for.
	nd := backend.nodes[0]
	nd.mu.Lock()
	nd.owed["j999@0"] = struct{}{}
	nd.mu.Unlock()
	front.swap(startNodes(t, 1)[0])

	after := submitMany(t, s, 12)
	waitDecided(t, s, after, 20*time.Second)
	for _, id := range append(before, after...) {
		if j := jobState(t, s, id); j.State != StateDecided {
			t.Errorf("job %s: %+v", id, j)
		}
	}
	deadline := time.Now().Add(2 * watchWait)
	for nd.owing() {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting for what the dead process owed: %v", nd.owed)
		}
		time.Sleep(time.Millisecond)
	}
}

// A gateway that restarts on a log with forwarded, undecided jobs has a new
// backend whose cursors stand at 0 and which owes nothing: the reconcile
// tick must find those jobs' verdicts in the nodes' journals.
func TestGatewayRestartDecidesForwardedJobs(t *testing.T) {
	ts := httptest.NewServer(startNodes(t, 1)[0])
	defer ts.Close()
	logPath := filepath.Join(t.TempDir(), "gw.wal")

	first, err := NewHTTPBackend([]string{ts.URL}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// No watcher and no tick: this gateway forwards and never learns.
	s1 := newHTTPGateway(t, plainBackend{first}, logPath, time.Hour)
	ids := submitMany(t, s1, 9)
	for _, id := range ids {
		if j := jobState(t, s1, id); j.State != StateForwarded {
			t.Fatalf("job %s: %+v, want forwarded", id, j)
		}
	}
	// "SIGKILL": s1 is left as it is; the log holds its Forwarded records.

	second, err := NewHTTPBackend([]string{ts.URL}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newHTTPGateway(t, second, logPath, 5*time.Millisecond)
	waitDecided(t, s2, ids, 20*time.Second)
	waitMetric(t, s2, `rtds_gateway_decisions_observed_total{via="poll"} 9`)
}

// scriptedNode is a node control plane whose decision journal the test
// writes, one latency per decision.
type scriptedNode struct {
	mu      sync.Mutex
	journal []float64
}

func (n *scriptedNode) decide(latencies ...float64) {
	n.mu.Lock()
	n.journal = append(n.journal, latencies...)
	n.mu.Unlock()
}

func (n *scriptedNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/jobs" {
		fmt.Fprint(w, "{}") // GET /stats: the site is reachable
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	since, _ := strconv.Atoi(r.URL.Query().Get("since"))
	if r.URL.Query().Get("boot") != "b1" {
		since = 0
	}
	type entry struct {
		ID         string  `json:"id"`
		Outcome    string  `json:"outcome"`
		DecisionAt float64 `json:"decision_at"`
	}
	jobs := []entry{}
	for i := since; i < len(n.journal); i++ {
		jobs = append(jobs, entry{ID: fmt.Sprintf("j%d@0", i+1), Outcome: "rejected", DecisionAt: n.journal[i]})
	}
	json.NewEncoder(w).Encode(map[string]any{"boot": "b1", "next": len(n.journal), "jobs": jobs})
}

// What HTTPBackend.Stats hands the laxity gate: a node counts as slow once
// every one of the last sustainTicks ticks found it slow, one slow spell
// does not count, history read at first contact does not count, and the
// reading is gone one tick after the decisions stop, which is what a shut
// gate brings about: it cannot hold itself shut.
func TestStatsReportsSustainedSlowness(t *testing.T) {
	node := &scriptedNode{}
	ts := httptest.NewServer(node)
	defer ts.Close()
	backend, err := NewHTTPBackend([]string{ts.URL}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tick := func(latencies ...float64) float64 {
		t.Helper()
		node.decide(latencies...)
		if _, err := backend.Decisions(); err != nil {
			t.Fatal(err)
		}
		st, err := backend.Stats()
		if err != nil || st.ReachableSites != 1 {
			t.Fatalf("Stats: %+v, %v", st, err)
		}
		return st.DecisionLatencyP99
	}

	tick(500) // what the node decided before this gateway knew it
	if got := backend.nodes[0].ticks[0]; got != 0 {
		t.Fatalf("history read at first contact was filed as a tick's p99: %v", got)
	}
	for i := 0; i < 2*sustainTicks; i++ {
		var got float64
		if i == sustainTicks+1 {
			got = tick(90, 120, 2) // one slow spell among quick ticks
		} else {
			got = tick(2, 3)
		}
		want := 3.0
		if i < sustainTicks-1 {
			want = 0 // the ticks so far include the one that read the history
		}
		if got != want {
			t.Fatalf("quick tick %d: p99 %v, want %v", i, got, want)
		}
	}
	for i := 0; i < sustainTicks; i++ {
		got, want := tick(100+float64(i), 40), 3.0
		if i == sustainTicks-1 {
			want = 100
		}
		if got != want {
			t.Fatalf("slow tick %d: p99 %v, want %v", i, got, want)
		}
	}
	if got := tick(); got != 0 {
		t.Fatalf("a tick without decisions left the reading at %v", got)
	}
}
