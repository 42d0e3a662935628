package gateway

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// watchedFake is fakeBackend with the DecisionWatcher capability; the test
// delivers verdicts by calling deliver.
type watchedFake struct {
	*fakeBackend
	watchMu sync.Mutex
	deliver func(map[string]BackendDecision)
}

func (b *watchedFake) WatchDecisions(deliver func(map[string]BackendDecision)) func() {
	b.watchMu.Lock()
	b.deliver = deliver
	b.watchMu.Unlock()
	return func() {}
}

func (b *watchedFake) watch(d map[string]BackendDecision) {
	b.watchMu.Lock()
	deliver := b.deliver
	b.watchMu.Unlock()
	deliver(d)
}

func scrape(t *testing.T, s *Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if ct := w.Result().Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("content type = %q", ct)
	}
	return w.Body.String()
}

func tenantStats(t *testing.T, s *Server, tenant string) TenantStats {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/tenants/"+tenant+"/stats", nil))
	var ts TenantStats
	if err := json.NewDecoder(w.Result().Body).Decode(&ts); err != nil {
		t.Error(err) // not Fatal: it runs on other goroutines too
	}
	return ts
}

// series reads one sample of an exposition: the family name and its label
// values in order (name=value pairs), 0 when the series is absent.
func series(t *testing.T, text, name string, labels ...string) float64 {
	t.Helper()
	parsed, err := metrics.ParseText([]byte(text))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
next:
	for _, s := range parsed {
		if s.Name != name || len(s.Labels) != len(labels)/2 {
			continue
		}
		for i := 0; i < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				continue next
			}
		}
		return s.Value
	}
	return 0
}

// checkStatsMatchMetrics asserts that every declared tenant's stats reply
// and the exposition agree on the counts both surfaces show.
func checkStatsMatchMetrics(t *testing.T, s *Server, text string) {
	t.Helper()
	for _, tenant := range s.adm.Tenants() {
		ts := tenantStats(t, s, tenant)
		result := func(r string) int {
			return int(series(t, text, "rtds_gateway_submissions_total", "tenant", tenant, "result", r))
		}
		for _, c := range []struct {
			field       string
			stats, prom int
		}{
			{"inflight", ts.Inflight, int(series(t, text, "rtds_gateway_jobs_inflight", "tenant", tenant))},
			{"rate_limited", ts.RateLimited, result("rejected_rate")},
			{"quota_limited", ts.QuotaLimited, result("rejected_quota")},
			{"laxity_limited", ts.LaxityLimited, result("rejected_laxity")},
			{"duplicates", ts.Duplicates, result("duplicate")},
		} {
			if c.stats != c.prom {
				t.Errorf("tenant %s: stats %s = %d, /metrics says %d", tenant, c.field, c.stats, c.prom)
			}
		}
	}
}

// maskVolatile blanks what a wall clock decides: the latency histograms'
// buckets and sums, and the restart time. Their counts stay.
func maskVolatile(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		name, _, _ := strings.Cut(l, " ")
		name, _, _ = strings.Cut(name, "{")
		if strings.HasPrefix(l, "#") ||
			!(strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || name == "rtds_gateway_restart_seconds") {
			continue
		}
		lines[i] = l[:strings.LastIndexByte(l, ' ')] + " _"
	}
	return strings.Join(lines, "\n")
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s (rerun with -update after a deliberate change):\n%s", path, got)
	}
}

// One scripted run touches every path a submission or a verdict can take
// (accepted, duplicate, each 429, invalid, unknown tenant, a failed
// forward, verdicts by watch and by poll) and then a restart. Both
// expositions are pinned, and at each the tenant stats agree with them.
func TestMetricsExpositionGolden(t *testing.T) {
	quotas := map[string]Quota{
		"acme": {Rate: 1000, Burst: 1000, MaxInflight: 3},
		"zeta": {Rate: 0.001, Burst: 1},
		"idle": {Rate: 1, Burst: 1},
	}
	logPath := filepath.Join(t.TempDir(), "gateway.wal")
	fb := &watchedFake{fakeBackend: newFakeBackend()}
	post := func(s *Server, body string, want int) {
		t.Helper()
		if resp, reply := submit(t, s, body); resp.StatusCode != want {
			t.Fatalf("POST %s: %v %v, want %d", body, resp.Status, reply, want)
		}
	}
	job := func(tenant, extra string) string {
		return `{"tenant":"` + tenant + `"` + extra + `,"deadline":40,"graph":` + testGraph + `}`
	}

	s1, err := New(Options{Tenants: quotas, Backend: fb, LogPath: logPath, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	post(s1, job("acme", `,"client_key":"k1"`), http.StatusAccepted) // j1@0
	post(s1, job("acme", `,"client_key":"k1"`), http.StatusOK)
	fb.mu.Lock()
	fb.failNext = 1
	fb.mu.Unlock()
	post(s1, job("acme", ""), http.StatusAccepted) // queued: the forward fails
	post(s1, job("acme", ""), http.StatusAccepted) // j2@0
	post(s1, job("acme", ""), http.StatusTooManyRequests)
	post(s1, job("zeta", ""), http.StatusAccepted) // j3@0
	post(s1, job("zeta", ""), http.StatusTooManyRequests)
	fb.mu.Lock()
	fb.p99 = 50
	fb.mu.Unlock()
	s1.PollNow() // feeds the laxity gate and forwards the queued job as j4@0
	post(s1, `{"tenant":"zeta","deadline":10,"graph":`+testGraph+`}`, http.StatusTooManyRequests)
	post(s1, `{"tenant":"acme","graph":`+testGraph+`}`, http.StatusBadRequest)
	post(s1, job("ghost", ""), http.StatusForbidden)
	fb.watch(map[string]BackendDecision{"j1@0": {Outcome: "accepted-local", Latency: 1.5}})
	fb.mu.Lock()
	fb.jobs["j2@0"] = BackendDecision{Outcome: "rejected", Latency: 2.5}
	fb.mu.Unlock()
	s1.PollNow()
	before := scrape(t, s1)
	checkStatsMatchMetrics(t, s1, before)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, fb, quotas, logPath)
	fb.decideAll("accepted-distributed")
	s2.PollNow()
	after := scrape(t, s2)
	checkStatsMatchMetrics(t, s2, after)

	checkGolden(t, "exposition.txt",
		"# before the restart\n"+maskVolatile(before)+"# after the restart\n"+maskVolatile(after))
}

// The inflight series is the count the quota gate reads, from the moment
// a submission is admitted: while its record's fsync is still running, both
// surfaces show the job.
func TestInflightIsTheAdmittersCount(t *testing.T) {
	release := make(chan struct{})
	var blocking sync.Mutex
	var block chan<- struct{}
	syncing := make(chan struct{})
	s, err := New(Options{
		Tenants: map[string]Quota{"acme": {Rate: 1000, Burst: 1000, MaxInflight: 5}},
		Backend: newFakeBackend(), LogPath: filepath.Join(t.TempDir(), "gateway.wal"),
		Log: joblog.Options{OnSync: func(time.Duration) {
			blocking.Lock()
			b := block
			block = nil
			blocking.Unlock()
			if b != nil {
				b <- struct{}{}
				<-release
			}
		}},
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocking.Lock()
	block = syncing
	blocking.Unlock()

	done := make(chan int)
	go func() {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(acmeJob))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		io.Copy(io.Discard, w.Result().Body)
		done <- w.Code
	}()
	<-syncing // the submission's fsync ran; its waiters are not woken yet
	text := scrape(t, s)
	stats := tenantStats(t, s, "acme").Inflight
	gauge := series(t, text, "rtds_gateway_jobs_inflight", "tenant", "acme")
	close(release)
	if code := <-done; code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if stats != 1 || gauge != 1 {
		t.Errorf("during the fsync: stats inflight %d, /metrics jobs_inflight %v; want 1 and 1", stats, gauge)
	}
}

// Submissions (accepted, duplicate, invalid), verdicts by watch and by
// poll, tenant stats and scrapes all at once: nothing is lost or counted
// twice.
func TestConcurrentTrafficCountsExact(t *testing.T) {
	const workers, perWorker = 4, 25
	fb := &watchedFake{fakeBackend: newFakeBackend()}
	tenants := []string{"acme", "zeta"}
	quotas := map[string]Quota{}
	for _, name := range tenants {
		quotas[name] = Quota{Rate: 1e6, Burst: 1e6}
	}
	s := newTestServer(t, fb, quotas, "")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // scrapes and tenant stats while the traffic runs
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := metrics.ValidateText([]byte(scrape(t, s))); err != nil {
				t.Error(err)
				return
			}
			tenantStats(t, s, "acme")
		}
	}()
	go func() { // the tick decides by poll
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.PollNow()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := tenants[w%len(tenants)]
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				body := `{"tenant":"` + tenant + `","client_key":"` + key + `","deadline":40,"graph":` + testGraph + `}`
				resp, reply := submit(t, s, body)
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: %v %v", resp.Status, reply)
					return
				}
				if resp, _ := submit(t, s, body); resp.StatusCode != http.StatusOK {
					t.Errorf("duplicate: %v", resp.Status)
				}
				if resp, _ := submit(t, s, `{"tenant":"`+tenant+`","graph":`+testGraph+`}`); resp.StatusCode != http.StatusBadRequest {
					t.Errorf("invalid: %v", resp.Status)
				}
				id, _ := reply["cluster_id"].(string)
				if i%2 == 0 && id != "" { // every other verdict is delivered by the watcher
					fb.watch(map[string]BackendDecision{id: {Outcome: "accepted-local", Latency: 1}})
				} else if id != "" {
					fb.mu.Lock()
					fb.jobs[id] = BackendDecision{Outcome: "rejected", Latency: 1}
					fb.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	s.PollNow() // whatever the watcher left to the tick

	text := scrape(t, s)
	checkStatsMatchMetrics(t, s, text)
	total := 0.0
	for _, tenant := range tenants {
		n := float64(workers / len(tenants) * perWorker)
		ts := tenantStats(t, s, tenant)
		if ts.Submitted != int(n) || ts.Duplicates != int(n) || ts.Inflight != 0 || ts.Accepted+ts.Rejected != int(n) {
			t.Errorf("%s stats: %+v, want %v submitted and duplicates, all decided", tenant, ts, n)
		}
		for _, c := range []struct {
			name string
			got  float64
		}{
			{"accepted", series(t, text, "rtds_gateway_submissions_total", "tenant", tenant, "result", "accepted")},
			{"invalid", series(t, text, "rtds_gateway_submissions_total", "tenant", tenant, "result", "invalid")},
			{"decisions", series(t, text, "rtds_gateway_decisions_total", "tenant", tenant, "outcome", "accepted-local") +
				series(t, text, "rtds_gateway_decisions_total", "tenant", tenant, "outcome", "rejected")},
		} {
			if c.got != n {
				t.Errorf("%s %s = %v, want %v", tenant, c.name, c.got, n)
			}
		}
		total += n
	}
	observed := series(t, text, "rtds_gateway_decisions_observed_total", "via", "watch") +
		series(t, text, "rtds_gateway_decisions_observed_total", "via", "poll")
	if observed != total {
		t.Errorf("%v verdicts observed, want %v", observed, total)
	}
	if got := series(t, text, "rtds_gateway_accept_latency_seconds_count"); got != total {
		t.Errorf("accept latency count %v, want %v", got, total)
	}
	if got := series(t, text, "rtds_gateway_jobs_held"); got != total {
		t.Errorf("jobs held %v, want %v", got, total)
	}
}
