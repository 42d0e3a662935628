package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// fakeBackend is an in-memory cluster: submissions are assigned cluster
// IDs, decisions are scripted by the test.
type fakeBackend struct {
	mu        sync.Mutex
	next      int
	jobs      map[string]BackendDecision
	failNext  int // Submit errors for this many calls
	p99       float64
	submitted int
	graphs    []string // what each accepted Submit carried
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{jobs: make(map[string]BackendDecision)}
}

func (f *fakeBackend) Submit(at, deadline float64, graph json.RawMessage) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext > 0 {
		f.failNext--
		return "", fmt.Errorf("cluster down")
	}
	f.next++
	f.submitted++
	f.graphs = append(f.graphs, string(graph))
	id := fmt.Sprintf("j%d@0", f.next)
	f.jobs[id] = BackendDecision{Outcome: "pending"}
	return id, nil
}

func (f *fakeBackend) Decisions() (map[string]BackendDecision, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]BackendDecision, len(f.jobs))
	for k, v := range f.jobs {
		out[k] = v
	}
	return out, nil
}

func (f *fakeBackend) Stats() (BackendStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return BackendStats{DecisionLatencyP99: f.p99, ReachableSites: 1}, nil
}

func (f *fakeBackend) decideAll(outcome string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k := range f.jobs {
		f.jobs[k] = BackendDecision{Outcome: outcome, Latency: 2.5}
	}
}

const testGraph = `{"name":"t","tasks":[{"id":1,"complexity":5}],"edges":[]}`

func newTestServer(t *testing.T, backend Backend, quotas map[string]Quota, logPath string) *Server {
	t.Helper()
	if quotas == nil {
		quotas = map[string]Quota{"acme": {Rate: 1000, Burst: 1000, MaxInflight: 0}}
	}
	if logPath == "" {
		logPath = filepath.Join(t.TempDir(), "gateway.wal")
	}
	s, err := New(Options{
		Tenants: quotas, Backend: backend, LogPath: logPath,
		PollInterval: time.Hour, // tests drive the poller with PollNow
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submit(t *testing.T, s *Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	resp := w.Result()
	var reply map[string]any
	json.NewDecoder(resp.Body).Decode(&reply)
	return resp, reply
}

func TestSubmitLifecycle(t *testing.T) {
	fb := newFakeBackend()
	s := newTestServer(t, fb, nil, "")

	resp, reply := submit(t, s, `{"tenant":"acme","deadline":40,"graph":`+testGraph+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v %v", resp.Status, reply)
	}
	id := reply["id"].(string)
	if reply["state"] != StateForwarded {
		t.Fatalf("state = %v, want forwarded", reply["state"])
	}

	fb.decideAll("accepted-distributed")
	s.PollNow()

	req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	var j Job
	json.NewDecoder(w.Result().Body).Decode(&j)
	if j.State != StateDecided || j.Outcome != "accepted-distributed" {
		t.Fatalf("after decision: %+v", j)
	}
	if j.DecisionLatency != 2.5 {
		t.Errorf("decision latency = %v, want 2.5", j.DecisionLatency)
	}

	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/tenants/acme/stats", nil))
	var ts TenantStats
	json.NewDecoder(w.Result().Body).Decode(&ts)
	if ts.Submitted != 1 || ts.Accepted != 1 || ts.Inflight != 0 {
		t.Errorf("tenant stats: %+v", ts)
	}
}

// The admission table: each row is one scripted request against a gateway
// whose tenant budget and cluster state are pinned, asserting status code,
// rejection reason and Retry-After presence.
func TestAdmissionTable(t *testing.T) {
	cases := []struct {
		name       string
		quotas     map[string]Quota
		p99        float64 // cluster decision latency fed to the laxity gate
		prime      int     // accepted submissions before the probe
		body       string
		wantStatus int
		wantResult string
		wantRetry  bool
		wantError  string // the reply's error text, when pinned
	}{
		{
			name:       "accepted",
			body:       `{"tenant":"acme","deadline":40,"graph":` + testGraph + `}`,
			wantStatus: http.StatusAccepted,
		},
		{
			name:       "unknown tenant",
			body:       `{"tenant":"ghost","deadline":40,"graph":` + testGraph + `}`,
			wantStatus: http.StatusForbidden,
			wantResult: "unknown",
		},
		{
			name:       "missing deadline",
			body:       `{"tenant":"acme","graph":` + testGraph + `}`,
			wantStatus: http.StatusBadRequest,
			wantResult: "invalid",
		},
		{
			name:       "malformed graph",
			body:       `{"tenant":"acme","deadline":40,"graph":{"tasks":"nope"}}`,
			wantStatus: http.StatusBadRequest,
			wantResult: "invalid",
		},
		{
			// Task IDs are 1..n: task 2 is missing.
			name: "sparse task IDs",
			body: `{"tenant":"acme","deadline":40,"graph":{"name":"sparse","tasks":[{"id":1,"complexity":5},{"id":3,"complexity":5}],` +
				`"edges":[{"from":1,"to":3}]}}`,
			wantStatus: http.StatusBadRequest,
			wantResult: "invalid",
		},
		{
			// Several edges to tasks that are not there: the 400 names the
			// first in the body, the same text on every submission.
			name: "edges to unknown tasks",
			body: `{"tenant":"acme","deadline":40,"graph":{"name":"bad3","tasks":[{"id":1,"complexity":1},{"id":2,"complexity":1},` +
				`{"id":3,"complexity":1}],"edges":[{"from":1,"to":7},{"from":1,"to":8},{"from":1,"to":9}]}}`,
			wantStatus: http.StatusBadRequest,
			wantResult: "invalid",
			wantError:  "bad graph: dag: edge 1->7 references unknown task 7",
		},
		{
			// Refused by the body cap, before the graph is even parsed.
			name: "oversized body",
			body: `{"tenant":"acme","client_key":"big","deadline":40,"graph":{"name":"` +
				strings.Repeat("x", wire.MaxJobJSON) + `"}}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantResult: "invalid",
		},
		{
			// Under the body cap, a valid graph and a small wire frame, but
			// a submitted record the log cannot hold: refused at the door,
			// not failed after admission with a sequence number spent.
			name: "record over the log's bound",
			body: `{"tenant":"acme","client_key":"big","deadline":40,"graph":{"name":"t","tasks":[{"id":1,"complexity":5.` +
				strings.Repeat("0", joblog.MaxRecord) + `}],"edges":[]}}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantResult: "invalid",
		},
		{
			name:       "rate limited",
			quotas:     map[string]Quota{"acme": {Rate: 0.001, Burst: 2}},
			prime:      2, // drains the burst
			body:       `{"tenant":"acme","deadline":40,"graph":` + testGraph + `}`,
			wantStatus: http.StatusTooManyRequests,
			wantResult: "rejected_rate",
			wantRetry:  true,
		},
		{
			name:       "inflight quota",
			quotas:     map[string]Quota{"acme": {Rate: 1000, Burst: 1000, MaxInflight: 3}},
			prime:      3, // undecided, so they occupy the cap
			body:       `{"tenant":"acme","deadline":40,"graph":` + testGraph + `}`,
			wantStatus: http.StatusTooManyRequests,
			wantResult: "rejected_quota",
			wantRetry:  true,
		},
		{
			name:       "laxity backpressure",
			p99:        50, // cluster takes ~50 virtual units to decide
			body:       `{"tenant":"acme","deadline":10,"graph":` + testGraph + `}`,
			wantStatus: http.StatusTooManyRequests,
			wantResult: "rejected_laxity",
			wantRetry:  true,
		},
		{
			name:       "ample laxity passes the gate",
			p99:        50,
			body:       `{"tenant":"acme","deadline":200,"graph":` + testGraph + `}`,
			wantStatus: http.StatusAccepted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fb := newFakeBackend()
			fb.p99 = tc.p99
			logPath := filepath.Join(t.TempDir(), "gateway.wal")
			s := newTestServer(t, fb, tc.quotas, logPath)
			if tc.p99 > 0 {
				s.PollNow() // feed the laxity gate
			}
			for i := 0; i < tc.prime; i++ {
				resp, reply := submit(t, s, `{"tenant":"acme","deadline":40,"graph":`+testGraph+`}`)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("prime %d: %v %v", i, resp.Status, reply)
				}
			}
			logged, err := os.Stat(logPath)
			if err != nil {
				t.Fatal(err)
			}
			resp, reply := submit(t, s, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %v, want %d (%v)", resp.Status, tc.wantStatus, reply)
			}
			if tc.wantStatus != http.StatusAccepted {
				// A refusal leaves no job, no client key, no log record and
				// no spent sequence number.
				after, err := os.Stat(logPath)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.jobs.Jobs) != tc.prime || clientKeys(s) != 0 || fb.submitted != tc.prime ||
					after.Size() != logged.Size() || s.seq != uint64(tc.prime) {
					t.Errorf("refusal stored something: %d jobs, %d keys, %d cluster submissions, log %d -> %d bytes, seq %d",
						len(s.jobs.Jobs), clientKeys(s), fb.submitted, logged.Size(), after.Size(), s.seq)
				}
			}
			if tc.wantResult != "" && reply["result"] != tc.wantResult {
				t.Errorf("result = %v, want %v", reply["result"], tc.wantResult)
			}
			if tc.wantError != "" && reply["error"] != tc.wantError {
				t.Errorf("error = %q, want %q", reply["error"], tc.wantError)
			}
			if tc.wantRetry && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		})
	}
}

func TestClientKeyIdempotence(t *testing.T) {
	fb := newFakeBackend()
	s := newTestServer(t, fb, nil, "")
	body := `{"tenant":"acme","client_key":"order-77","deadline":40,"graph":` + testGraph + `}`

	resp1, r1 := submit(t, s, body)
	resp2, r2 := submit(t, s, body)
	if resp1.StatusCode != http.StatusAccepted || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses: %v then %v", resp1.Status, resp2.Status)
	}
	if r1["id"] != r2["id"] {
		t.Errorf("retry minted a new job: %v vs %v", r1["id"], r2["id"])
	}
	if fb.submitted != 1 {
		t.Errorf("cluster saw %d submissions, want 1", fb.submitted)
	}
}

// A SIGKILL between the ack and the cluster decision must lose nothing:
// reopening the same log replays the undecided jobs into the cluster.
func TestRestartReplaysUndecided(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "gateway.wal")
	fb := newFakeBackend()
	fb.failNext = 1000 // cluster unreachable: everything stays queued

	s := newTestServer(t, fb, nil, logPath)
	var ids []string
	for i := 0; i < 5; i++ {
		resp, reply := submit(t, s, `{"tenant":"acme","deadline":40,"graph":`+testGraph+`}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %v", i, resp.Status)
		}
		ids = append(ids, reply["id"].(string))
	}
	// "SIGKILL": drop the server without Close — the log file already
	// holds the fsynced Submitted records.

	fb2 := newFakeBackend()
	s2 := newTestServer(t, fb2, nil, logPath)
	s2.PollNow() // re-submits the queued replays
	fb2.decideAll("accepted-local")
	s2.PollNow()

	for _, id := range ids {
		w := httptest.NewRecorder()
		s2.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("job %s lost across restart", id)
		}
		var j Job
		json.NewDecoder(w.Result().Body).Decode(&j)
		if j.State != StateDecided || j.Outcome != "accepted-local" {
			t.Errorf("job %s after replay: %+v", id, j)
		}
	}
	if fb2.submitted != len(ids) {
		t.Errorf("cluster saw %d replayed submissions, want %d", fb2.submitted, len(ids))
	}
	for i, g := range fb2.graphs {
		if g != testGraph {
			t.Errorf("replayed submission %d carried %s, not the bytes that were acked", i, g)
		}
	}

	// New submissions must not reuse replayed IDs.
	_, reply := submit(t, s2, `{"tenant":"acme","deadline":40,"graph":`+testGraph+`}`)
	for _, id := range ids {
		if reply["id"] == id {
			t.Fatalf("id %s reused after restart", id)
		}
	}
}

// A restart where some jobs were already forwarded must re-poll them, not
// re-submit them (no duplicate cluster jobs for the forwarded ones).
func TestRestartRepollsForwarded(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "gateway.wal")
	fb := newFakeBackend()
	s1 := newTestServer(t, fb, nil, logPath)
	resp, reply := submit(t, s1, `{"tenant":"acme","deadline":40,"graph":`+testGraph+`}`)
	if resp.StatusCode != http.StatusAccepted || reply["state"] != StateForwarded {
		t.Fatalf("submit: %v %v", resp.Status, reply)
	}
	id := reply["id"].(string)
	before := fb.submitted

	s2 := newTestServer(t, fb, nil, logPath) // restart against the same cluster
	fb.decideAll("accepted-local")
	s2.PollNow()

	if fb.submitted != before {
		t.Errorf("restart re-submitted a forwarded job: %d -> %d", before, fb.submitted)
	}
	w := httptest.NewRecorder()
	s2.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	var j Job
	json.NewDecoder(w.Result().Body).Decode(&j)
	if j.State != StateDecided {
		t.Errorf("forwarded job not re-polled after restart: %+v", j)
	}
}

func TestMetricsEndpointIsValidPrometheus(t *testing.T) {
	fb := newFakeBackend()
	s := newTestServer(t, fb, nil, "")
	submit(t, s, `{"tenant":"acme","deadline":40,"graph":`+testGraph+`}`)
	submit(t, s, `{"tenant":"ghost","deadline":40,"graph":`+testGraph+`}`)

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if ct := w.Result().Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("content type = %q", ct)
	}
	body := w.Body.Bytes()
	if err := metrics.ValidateText(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		`rtds_gateway_submissions_total{tenant="acme",result="accepted"} 1`,
		`rtds_gateway_submissions_total{tenant="unknown",result="unknown"} 1`,
		"rtds_gateway_joblog_fsync_seconds_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestParseTenants(t *testing.T) {
	quotas, err := ParseTenants("acme:rate=50,burst=100,inflight=200;zeta:rate=10")
	if err != nil {
		t.Fatal(err)
	}
	if q := quotas["acme"]; q != (Quota{Rate: 50, Burst: 100, MaxInflight: 200}) {
		t.Errorf("acme = %+v", q)
	}
	if q := quotas["zeta"]; q != (Quota{Rate: 10, Burst: 10}) {
		t.Errorf("zeta = %+v (burst should default to rate)", q)
	}
	for _, bad := range []string{"", "noparams", "x:rate=0", "x:rate=5;x:rate=6", "x:speed=9", "unknown:rate=1"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
}

func TestTokenBucketRefill(t *testing.T) {
	a := NewAdmitter(map[string]Quota{"t": {Rate: 10, Burst: 2}})
	now := time.Unix(1000, 0)
	a.SetClock(func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if d := a.Admit("t", 100); !d.OK {
			t.Fatalf("burst admit %d refused: %+v", i, d)
		}
	}
	if d := a.Admit("t", 100); d.OK || d.Reason != "rate" {
		t.Fatalf("empty bucket admitted: %+v", d)
	}
	now = now.Add(100 * time.Millisecond) // refills one token at rate=10
	if d := a.Admit("t", 100); !d.OK {
		t.Fatalf("refilled token refused: %+v", d)
	}
}
