package nodeapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// startPair boots a 2-site TCP cluster and returns both nodes' API
// servers behind httptest.
func startPair(t *testing.T) (srv0, srv1 *httptest.Server, cleanup func()) {
	t.Helper()
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.05)
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 4
	cfg.ReleasePadFactor = 30
	cfg.Membership = membership.Config{Enabled: true, HeartbeatEvery: 25, SuspectAfter: 100}
	scale := time.Millisecond

	trs := make([]*wire.NetTransport, 2)
	addrs := make(map[graph.NodeID]string)
	for id := 0; id < 2; id++ {
		tr, err := wire.Listen(wire.NetConfig{
			Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", Scale: scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[id] = tr
		addrs[graph.NodeID(id)] = tr.Addr()
	}
	apis := make([]*Server, 2)
	nodes := make([]*core.Node, 2)
	for id, tr := range trs {
		tr.SetPeers(addrs)
		node, err := core.NewNode(topo, cfg, tr, graph.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		apis[id] = New(node)
	}
	for _, tr := range trs {
		tr.Start()
	}
	for _, node := range nodes {
		node.StartBootstrap()
	}
	for id, node := range nodes {
		if !node.WaitReady(30 * time.Second) {
			t.Fatalf("node %d bootstrap stalled", id)
		}
		node.Seal()
	}
	s0, s1 := httptest.NewServer(apis[0]), httptest.NewServer(apis[1])
	return s0, s1, func() {
		s0.Close()
		s1.Close()
		for _, tr := range trs {
			tr.Close()
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestControlPlane(t *testing.T) {
	srv0, _, cleanup := startPair(t)
	defer cleanup()

	// Readiness gating: SetReady was not called yet, so submissions and
	// readyz are refused while healthz answers.
	if resp, err := http.Get(srv0.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	if resp, _ := http.Get(srv0.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady: status %d, want 503", resp.StatusCode)
	}
	g := dag.NewBuilder("one").AddTask(1, 2).MustBuild()
	graphJSON, _ := json.Marshal(g)
	body := fmt.Sprintf(`{"at":0,"deadline":50,"graph":%s}`, graphJSON)
	resp, err := http.Post(srv0.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit before ready: status %d, want 503", resp.StatusCode)
	}

	// Flip ready on the server under test (the peer stays implicit).
	serverOf(t, srv0).SetReady()
	if resp, _ := http.Get(srv0.URL + "/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz after SetReady: status %d", resp.StatusCode)
	}

	resp, err = http.Post(srv0.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitReply struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitReply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if submitReply.ID == "" {
		t.Fatal("submit returned no job id")
	}

	// Poll /jobs until the trivial job is decided (locally, instantly).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var reply struct {
			Jobs []core.JobStatus `json:"jobs"`
		}
		getJSON(t, srv0.URL+"/jobs", &reply)
		if len(reply.Jobs) == 1 && reply.Jobs[0].OutcomeName != "pending" {
			if reply.Jobs[0].OutcomeName != "accepted-local" {
				t.Fatalf("trivial job decided %q, want accepted-local", reply.Jobs[0].OutcomeName)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never decided")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /metrics is the one statistics surface: there is no /stats.
	if resp, err := http.Get(srv0.URL + "/stats"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats: %v %v, want 404", resp, err)
	}

	var res struct {
		Jobs []string `json:"jobs"`
	}
	getJSON(t, srv0.URL+"/reservations", &res)
	if len(res.Jobs) != 1 || res.Jobs[0] != submitReply.ID {
		t.Fatalf("reservations %v, want exactly %q", res.Jobs, submitReply.ID)
	}

	var idle struct {
		Idle bool `json:"idle"`
	}
	getJSON(t, srv0.URL+"/idle", &idle)
	if !idle.Idle {
		t.Fatal("node not idle after its only job was decided")
	}

	// Malformed submissions are refused, not crashes, and create no job; a
	// body past the cap is refused without being buffered.
	for _, bad := range []struct {
		name, body string
		want       int
	}{
		{"truncated", "{", http.StatusBadRequest},
		{"empty graph", `{"at":0,"deadline":50,"graph":{"tasks":[]}}`, http.StatusBadRequest},
		{"sparse task IDs", `{"at":0,"deadline":50,"graph":{"tasks":[{"id":1,"complexity":1},{"id":3,"complexity":1}]}}`,
			http.StatusBadRequest},
		{"oversized", `{"at":0,"deadline":50,"graph":{"name":"` + strings.Repeat("x", wire.MaxJobJSON) + `"}}`,
			http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(srv0.URL+"/submit", "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != bad.want {
			t.Fatalf("%s submit: status %d, want %d", bad.name, resp.StatusCode, bad.want)
		}
	}
	if n := serverOf(t, srv0).node.Summarize().Submitted; n != 1 {
		t.Fatalf("refused submissions left %d jobs on the node, want the 1 accepted", n)
	}

	// Membership view: the layer is armed, heartbeating, and the peer is
	// alive (snapshot fields are stable even while beacons keep flowing).
	var mem membership.Snapshot
	getJSON(t, srv0.URL+"/membership", &mem)
	if !mem.Started || mem.Joining {
		t.Fatalf("membership snapshot %+v, want started and not joining", mem)
	}
	foundPeer := false
	for _, st := range mem.Sites {
		if st.Site == 1 {
			foundPeer = true
			if st.Dead {
				t.Fatal("healthy peer reported dead")
			}
			if !st.Neighbor {
				t.Fatal("direct peer not flagged as neighbor")
			}
		}
	}
	if !foundPeer {
		t.Fatalf("membership snapshot misses the peer: %+v", mem.Sites)
	}

	// The Prometheus plane: valid text format, live values.
	resp, err = http.Get(srv0.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("/metrics content type %q", ct)
	}
	if err := metrics.ValidateText(promBody); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, promBody)
	}
	for _, want := range []string{
		"rtds_node_ready 1",
		"rtds_node_jobs_total 1",
		"rtds_node_jobs_decided_total 1",
		"rtds_node_jobs_accepted_total 1",
		"rtds_node_decision_latency_seconds_count 1",
		`rtds_node_messages_by_kind_total{kind=`,
	} {
		if !strings.Contains(string(promBody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, promBody)
		}
	}
	if strings.Contains(string(promBody), "rtds_node_bootstrap_messages_total 0\n") {
		t.Error("/metrics reports no bootstrap messages")
	}
}

// Every family a live scrape can emit must be in MetricNames (the set
// docs/metrics.md is tested against).
func TestMetricNamesCoverLiveScrape(t *testing.T) {
	live := buildProm(snapshot{
		ready: true, sum: core.Summary{Messages: 3}, byKind: map[string]int64{"rtds.enroll": 2},
	}).Names()
	declared := make(map[string]bool)
	for _, n := range MetricNames() {
		declared[n] = true
	}
	for _, n := range live {
		if !declared[n] {
			t.Errorf("live scrape emits %s, absent from MetricNames()", n)
		}
	}
}

// serverOf digs the *Server back out of the httptest handler (it is the
// handler).
func serverOf(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	s, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("handler is %T, want *Server", ts.Config.Handler)
	}
	return s
}

// submitJobs posts n single-task jobs with seeded-random sizes and deadlines
// (some too tight to accept) and returns once the node has decided them all.
func submitJobs(t *testing.T, srv *httptest.Server, rng *rand.Rand, n int) {
	t.Helper()
	node := serverOf(t, srv).node
	want := node.Summarize().Submitted + n
	for i := 0; i < n; i++ {
		g := dag.NewBuilder("job").AddTask(1, 1+4*rng.Float64()).MustBuild()
		graphJSON, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"at":0,"deadline":%g,"graph":%s}`, 0.5+60*rng.Float64(), graphJSON)
		resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for cursor := 0; cursor < want; {
		tail, next, wake := node.DecidedSince(cursor, 0)
		if cursor = next; len(tail) > 0 {
			continue
		}
		select {
		case <-wake:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("only %d of %d jobs decided", cursor, want)
		}
	}
}

// getJournal reads GET /jobs with the given query.
func getJournal(t *testing.T, srv *httptest.Server, query string) JournalReply {
	t.Helper()
	var reply JournalReply
	getJSON(t, srv.URL+"/jobs?"+query, &reply)
	return reply
}

// goJournal is getJournal from a goroutine of its own: a failed read is
// reported as a reply no assertion accepts (Next -1), not by t.Fatal off
// the test's goroutine.
func goJournal(srv *httptest.Server, query string) <-chan JournalReply {
	got := make(chan JournalReply, 1)
	go func() {
		reply := JournalReply{Next: -1}
		if resp, err := http.Get(srv.URL + "/jobs?" + query); err == nil {
			if json.NewDecoder(resp.Body).Decode(&reply) != nil {
				reply = JournalReply{Next: -1}
			}
			resp.Body.Close()
		}
		got <- reply
	}()
	return got
}

// The decision journal behind GET /jobs?since=: every way a reader's cursor
// can stand to the journal, and every way a held request ends.
func TestJobsSince(t *testing.T) {
	srv0, _, cleanup := startPair(t)
	defer cleanup()
	api := serverOf(t, srv0)
	api.SetReady()
	rng := rand.New(rand.NewSource(7))
	submitJobs(t, srv0, rng, 12)

	// A first read knows no boot token and starts at 0. Walking the journal
	// in pages of any size visits every decision once, in decision order,
	// with a cursor that never goes back.
	first := getJournal(t, srv0, "since=0&boot=")
	if first.Boot == "" || first.Next != 12 || len(first.Jobs) != 12 {
		t.Fatalf("first read: boot %q next %d jobs %d, want a token, 12, 12", first.Boot, first.Next, len(first.Jobs))
	}
	seen := make(map[string]bool)
	for i, j := range first.Jobs {
		if j.OutcomeName == "pending" || seen[j.ID] {
			t.Errorf("journal entry %d: %s %s (pending or repeated)", i, j.ID, j.OutcomeName)
		}
		seen[j.ID] = true
		if i > 0 && j.DecisionAt < first.Jobs[i-1].DecisionAt {
			t.Errorf("journal out of decision order at %d: %v after %v", i, j.DecisionAt, first.Jobs[i-1].DecisionAt)
		}
	}
	for _, c := range []int{0, 5, 11, 12} {
		r := getJournal(t, srv0, fmt.Sprintf("since=%d&boot=%s", c, first.Boot))
		if r.Next != 12 || len(r.Jobs) != 12-c || r.Jobs == nil {
			t.Errorf("since=%d: next %d, %d jobs (nil=%v); want 12, %d", c, r.Next, len(r.Jobs), r.Jobs == nil, 12-c)
		}
		if c < 12 && r.Jobs[0].ID != first.Jobs[c].ID {
			t.Errorf("since=%d starts at %s, want %s", c, r.Jobs[0].ID, first.Jobs[c].ID)
		}
	}

	cases := []struct {
		name, query string
		wantJobs    int
		wantStatus  int
	}{
		{name: "stale boot token restarts at 0", query: "since=9&boot=another-process", wantJobs: 12},
		{name: "missing boot token restarts at 0", query: "since=9", wantJobs: 12},
		{name: "no cursor reads from 0", query: "", wantJobs: 12},
		{name: "cursor beyond the journal restarts at 0", query: "since=99&boot=" + first.Boot, wantJobs: 12},
		{name: "at the end, no wait", query: "since=12&boot=" + first.Boot, wantJobs: 0},
		{name: "negative cursor", query: "since=-1&boot=" + first.Boot, wantStatus: http.StatusBadRequest},
		{name: "cursor not a number", query: "since=x&boot=" + first.Boot, wantStatus: http.StatusBadRequest},
		{name: "wait not a duration", query: "since=12&wait=soon&boot=" + first.Boot, wantStatus: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(srv0.URL + "/jobs?" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if tc.wantStatus != 0 {
				if resp.StatusCode != tc.wantStatus {
					t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
				}
				return
			}
			var r JournalReply
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				t.Fatal(err)
			}
			if len(r.Jobs) != tc.wantJobs || r.Next != 12 || r.Boot != first.Boot {
				t.Errorf("%d jobs, next %d, boot %q; want %d, 12, %q", len(r.Jobs), r.Next, r.Boot, tc.wantJobs, first.Boot)
			}
		})
	}

	atEnd := "since=12&boot=" + first.Boot

	t.Run("wait ends empty at the timeout", func(t *testing.T) {
		start := time.Now()
		r := getJournal(t, srv0, atEnd+"&wait=60ms")
		if d := time.Since(start); d < 60*time.Millisecond || d > 2*time.Second {
			t.Errorf("held for %v, want about 60ms", d)
		}
		if len(r.Jobs) != 0 || r.Next != 12 {
			t.Errorf("timed-out wait returned %d jobs, next %d", len(r.Jobs), r.Next)
		}
	})

	t.Run("wait is capped", func(t *testing.T) {
		start := time.Now()
		getJournal(t, srv0, atEnd+"&wait=1h")
		if d := time.Since(start); d > maxWait+2*time.Second {
			t.Errorf("held for %v, cap is %v", d, maxWait)
		}
	})

	t.Run("wait ends at the next decision", func(t *testing.T) {
		got := goJournal(srv0, atEnd+"&wait=1s")
		// No sleep needed for correctness: a decision that lands before the
		// request does is in its tail at once.
		submitJobs(t, srv0, rng, 1)
		select {
		case r := <-got:
			if len(r.Jobs) != 1 || r.Next != 13 {
				t.Errorf("woken wait returned %d jobs, next %d; want 1, 13", len(r.Jobs), r.Next)
			}
		case <-time.After(900 * time.Millisecond):
			t.Error("a decision did not end the wait before its timeout")
		}
	})

	// Behind a handler that tells when the request is over, so that "the
	// handler was released" is observed and not inferred from the client.
	released := make(chan time.Duration, 1)
	held := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		api.ServeHTTP(w, r)
		released <- time.Since(start)
	}))
	defer held.Close()
	atEnd = "since=13&boot=" + first.Boot

	t.Run("client cancel releases the handler", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", held.URL+"/jobs?"+atEnd+"&wait=1s", nil)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		time.Sleep(50 * time.Millisecond) // let the request reach its wait; too early only cancels the dial
		cancel()
		if err := <-errc; err == nil {
			t.Error("cancelled request succeeded")
		}
		select {
		case d := <-released:
			if d > 700*time.Millisecond {
				t.Errorf("handler held for %v after a cancel", d)
			}
		case <-time.After(900 * time.Millisecond):
			t.Error("handler still held after the client went away")
		}
	})

	t.Run("ReleaseWaiters ends held and later waits", func(t *testing.T) {
		got := goJournal(held, atEnd+"&wait=1s")
		time.Sleep(50 * time.Millisecond)
		api.ReleaseWaiters()
		api.ReleaseWaiters() // a second shutdown hook must not panic
		if d := <-released; d > 700*time.Millisecond {
			t.Errorf("held wait took %v to release", d)
		}
		if r := <-got; len(r.Jobs) != 0 || r.Next != 13 {
			t.Errorf("released wait returned %d jobs, next %d", len(r.Jobs), r.Next)
		}
		start := time.Now()
		getJournal(t, srv0, atEnd+"&wait=1s")
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("a wait after the release was held for %v", d)
		}
	})
}

// scrapeFold reads the decision part of GET /metrics: the job, decided and
// accepted counters, and the latency histogram's cumulative bucket counts
// (the +Inf bucket last), its count and its sum.
func scrapeFold(t *testing.T, srv *httptest.Server) (counts map[string]float64, buckets []float64) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series, err := metrics.ParseText(body)
	if err != nil {
		t.Fatal(err)
	}
	counts = make(map[string]float64)
	for _, s := range series {
		switch s.Name {
		case "rtds_node_jobs_total", "rtds_node_jobs_decided_total", "rtds_node_jobs_accepted_total",
			"rtds_node_decision_latency_seconds_count", "rtds_node_decision_latency_seconds_sum":
			counts[s.Name] = s.Value
		case "rtds_node_decision_latency_seconds_bucket":
			buckets = append(buckets, s.Value)
		}
	}
	return counts, buckets
}

// foldFromScratch recomputes the same figures with one pass over the whole
// history.
func foldFromScratch(node *core.Node) (counts map[string]float64, buckets []float64) {
	counts = make(map[string]float64)
	buckets = make([]float64, len(core.LatencyBounds)+1)
	for _, j := range node.JobStatuses() {
		counts["rtds_node_jobs_total"]++
		if j.Outcome == core.Pending {
			continue
		}
		counts["rtds_node_jobs_decided_total"]++
		if j.Outcome == core.AcceptedLocal || j.Outcome == core.AcceptedDistributed {
			counts["rtds_node_jobs_accepted_total"]++
		}
		latency := j.DecisionAt - j.Arrival
		counts["rtds_node_decision_latency_seconds_count"]++
		counts["rtds_node_decision_latency_seconds_sum"] += latency
		for i, ub := range core.LatencyBounds {
			if latency <= ub {
				buckets[i]++
			}
		}
		buckets[len(core.LatencyBounds)]++
	}
	return counts, buckets
}

// /metrics renders the node's tally; whatever the rounds of submissions
// (of random size, each scraped one to three times), its decision counters
// and histogram must be the ones a recomputation over the whole history
// gives.
func TestMetricsFoldMatchesRecomputation(t *testing.T) {
	srv0, _, cleanup := startPair(t)
	defer cleanup()
	api := serverOf(t, srv0)
	api.SetReady()
	rng := rand.New(rand.NewSource(11))
	total := 0
	var got map[string]float64
	for round := 0; round < 8; round++ {
		n := 1 + rng.Intn(40)
		submitJobs(t, srv0, rng, n)
		total += n
		for range rng.Intn(3) {
			scrapeFold(t, srv0)
		}
		var buckets []float64
		got, buckets = scrapeFold(t, srv0)
		want, wantBuckets := foldFromScratch(api.node)
		sum, wantSum := got["rtds_node_decision_latency_seconds_sum"], want["rtds_node_decision_latency_seconds_sum"]
		delete(got, "rtds_node_decision_latency_seconds_sum")
		delete(want, "rtds_node_decision_latency_seconds_sum")
		if !maps.Equal(got, want) || !slices.Equal(buckets, wantBuckets) || math.Abs(sum-wantSum) > 1e-9*max(1, wantSum) {
			t.Fatalf("after %d jobs: scraped %v buckets %v sum %v, recomputed %v buckets %v sum %v",
				total, got, buckets, sum, want, wantBuckets, wantSum)
		}
		if want["rtds_node_jobs_decided_total"] != float64(total) {
			t.Fatalf("%v decided, want %d", want["rtds_node_jobs_decided_total"], total)
		}
	}
	if acc := got["rtds_node_jobs_accepted_total"]; acc == 0 || acc == got["rtds_node_jobs_decided_total"] {
		t.Errorf("the workload did not mix outcomes: %v of %v accepted", acc, got["rtds_node_jobs_decided_total"])
	}
}

// After a run, every counter and gauge /metrics renders is the node's
// Summarize, and the latency histogram counts every decided job: the scrape
// and the Summary are one computation. Message counters keep moving with
// the membership heartbeats, so they are held between a Summarize taken
// before the scrape and one taken after.
func TestMetricsAreTheSummary(t *testing.T) {
	srv0, _, cleanup := startPair(t)
	defer cleanup()
	api := serverOf(t, srv0)
	api.SetReady()
	submitJobs(t, srv0, rand.New(rand.NewSource(3)), 30)

	before := api.node.Summarize()
	resp, err := http.Get(srv0.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	after := api.node.Summarize()
	series, err := metrics.ParseText(body)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	var buckets []float64
	for _, s := range series {
		if s.Name == "rtds_node_decision_latency_seconds_bucket" {
			buckets = append(buckets, s.Value)
			continue
		}
		got[s.Name] = s.Value
	}

	decided := after.Submitted - after.Undecided
	for name, want := range map[string]int{
		"rtds_node_jobs_total":                     after.Submitted,
		"rtds_node_jobs_decided_total":             decided,
		"rtds_node_jobs_accepted_total":            after.AcceptedLocal + after.AcceptedDistributed,
		"rtds_node_violations_total":               after.Violations,
		"rtds_node_disruptions_total":              after.Disruptions,
		"rtds_node_routing_table_bytes":            after.RoutingTableBytes,
		"rtds_node_routing_entries":                after.RoutingEntries,
		"rtds_node_decision_latency_seconds_count": decided,
	} {
		if got[name] != float64(want) {
			t.Errorf("%s = %v, Summarize says %d", name, got[name], want)
		}
	}
	for name, bound := range map[string][2]int64{
		"rtds_node_messages_total": {before.Messages, after.Messages},
		"rtds_node_bytes_total":    {before.Bytes, after.Bytes},
		"rtds_node_dropped_total":  {before.Dropped, after.Dropped},
	} {
		if v := got[name]; v < float64(bound[0]) || v > float64(bound[1]) {
			t.Errorf("%s = %v, Summarize says %d before the scrape and %d after", name, v, bound[0], bound[1])
		}
	}
	var cumulative []float64
	n := 0
	for _, c := range after.DecisionLatencies {
		n += c
		cumulative = append(cumulative, float64(n))
	}
	if !slices.Equal(buckets, cumulative) {
		t.Errorf("latency buckets %v, Summarize's cumulative %v", buckets, cumulative)
	}
	if sum, want := got["rtds_node_decision_latency_seconds_sum"], after.MeanDecisionLatency*float64(decided); math.Abs(sum-want) > 1e-9*want {
		t.Errorf("latency sum %v, want %v", sum, want)
	}
	if decided != 30 || after.Submitted != 30 {
		t.Fatalf("%d of %d jobs decided, want 30 of 30", decided, after.Submitted)
	}
}
