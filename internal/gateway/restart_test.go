package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/joblog"
)

// A restart allocates for a job what the log's fold keeps of it, and nothing
// on top: the fold is the job table, so there is no second copy of a job, no
// second id map and no client-key map beside it. On a 10,000-job log that
// compacted, a decided job costs its entry, its strings and its slots in
// the id and key indexes; the chunks, buffers and workers of the recovery
// are shared by the whole log, so their number is fixed. A gateway that
// copied each restored job into a table of its own allocated about 800 B
// per job here (920 B under the race detector), this one about 540 B (660
// B), both in 3 allocations: the job's strings.
func TestRestartFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const jobs = 10000
	logPath := filepath.Join(t.TempDir(), "gateway.wal")
	l, _, err := joblog.Open(logPath, joblog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Enough graph bytes for the log to compact itself on the way.
	graph := json.RawMessage(`{"name":"` + strings.Repeat("x", 480) + `"}`)
	for i := 1; i <= jobs; i++ {
		id, cluster := jobID(uint64(i)), "p"+strconv.Itoa(i)+"@0"
		if err := l.AppendNoWait(
			joblog.Record{Type: joblog.TypeSubmitted, ID: id, Seq: uint64(i), Tenant: "acme",
				ClientKey: "key-" + strconv.Itoa(i), Deadline: 100, Graph: graph},
			joblog.Record{Type: joblog.TypeForwarded, ID: id, Tenant: "acme", ClusterID: cluster},
			joblog.Record{Type: joblog.TypeDecided, ID: id, Tenant: "acme", ClusterID: cluster,
				Outcome: "accepted-local", DecisionLatency: 1},
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if records := readLog(t, logPath); records[0].Type != joblog.TypeCheckpoint {
		t.Fatalf("the log did not compact: it starts with %+v", records[0])
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(Options{
		Tenants: map[string]Quota{"acme": {Rate: 1000, Burst: 1000}}, Backend: newFakeBackend(), LogPath: logPath,
		PollInterval: time.Hour,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if j := jobState(t, s, jobID(jobs)); j.State != StateDecided {
		t.Fatalf("the last job restored as %+v", j)
	}
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	allocs := float64(after.Mallocs-before.Mallocs) / jobs
	t.Logf("restart: %.0f B and %.2f allocations per decided job", perJob, allocs)
	if perJob > 700 || allocs > 3.5 {
		t.Errorf("restart allocated %.0f B in %.2f allocations per decided job, want at most 700 B and 3.5", perJob, allocs)
	}
}

// scriptBackend is a cluster the randomized restart test drives one step
// at a time: the next Submit fails, or has its verdict delivered before it
// returns, when the test says so, and jobs are decided when the test says.
type scriptBackend struct {
	mu       sync.Mutex
	next     int
	fail     bool             // the next Submit fails
	overtake *BackendDecision // delivered inside the next Submit
	deliver  func(map[string]BackendDecision)
	pending  []string // forwarded and undecided, in forwarding order
	decided  map[string]BackendDecision
}

func (b *scriptBackend) Submit(at, deadline float64, graph json.RawMessage) (string, error) {
	b.mu.Lock()
	if b.fail {
		b.fail = false
		b.mu.Unlock()
		return "", errors.New("cluster down")
	}
	b.next++
	id := "r" + strconv.Itoa(b.next) + "@0"
	early := b.overtake
	b.overtake = nil
	if early != nil {
		b.decided[id] = *early
	} else {
		b.pending = append(b.pending, id)
	}
	b.mu.Unlock()
	if early != nil {
		b.deliver(map[string]BackendDecision{id: *early})
	}
	return id, nil
}

func (b *scriptBackend) Decisions() (map[string]BackendDecision, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]BackendDecision, len(b.decided))
	for k, v := range b.decided {
		out[k] = v
	}
	return out, nil
}

func (b *scriptBackend) Stats() (BackendStats, error) { return BackendStats{ReachableSites: 1}, nil }

// post is POST /v1/jobs: the status and the body, byte for byte.
func post(s *Server, body string) (int, string) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	return w.Code, w.Body.String()
}

// summarizedJSON is the GET /v1/jobs/{id} body for a job as Summarize
// folded it from the records of a log.
func summarizedJSON(j *joblog.ReplayJob) string {
	want := Job{ID: j.Submitted.ID, Tenant: j.Submitted.Tenant, ClusterID: j.ClusterID,
		State: StateQueued, Deadline: j.Submitted.Deadline}
	if j.Outcome != "" {
		want.State, want.Outcome, want.DecisionLatency = StateDecided, j.Outcome, j.DecisionLatency
	} else if j.ClusterID != "" {
		want.State = StateForwarded
	}
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, want)
	return w.Body.String()
}

// The job table a restart rebuilds is the one the gateway served. Random
// streams of operations (fresh and keyed submissions, retries of a key,
// forwards that fail, verdicts that overtake their forward, decisions
// delivered or polled, reconcile ticks) run on a gateway; after a clean
// Close, a restarted gateway answers every GET /v1/jobs/{id} and every
// retry of a client key with the bytes the first one answered with, and
// does so too when the log compacted those jobs into a checkpoint. A
// restart on a prefix of the log, cut at a random record boundary and
// perhaps torn, answers as Summarize folds the records of that prefix.
func TestRestartAnswersAsLive(t *testing.T) {
	// Filler for the log to compact itself past a seed's jobs: graphs that
	// take it over its floor in three records.
	filler := json.RawMessage(`{"name":"` + strings.Repeat("f", 3<<19) + `"}`)
	for seed := int64(1); seed <= 40; seed++ {
		for _, compacted := range []bool{false, true} {
			name := fmt.Sprintf("seed%d/%s", seed, map[bool]string{false: "append-only", true: "compacted"}[compacted])
			t.Run(name, func(t *testing.T) { restartAnswersAsLive(t, seed, compacted, filler) })
		}
	}
}

func restartAnswersAsLive(t *testing.T, seed int64, compacted bool, filler json.RawMessage) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	logPath := filepath.Join(dir, "gateway.wal")
	tenants := map[string]Quota{"acme": {Rate: 1e6, Burst: 1e6}, "zeta": {Rate: 1e6, Burst: 1e6}}
	start := func(path string) (*Server, *scriptBackend) {
		t.Helper()
		b := &scriptBackend{decided: make(map[string]BackendDecision)}
		s, err := New(Options{Tenants: tenants, Backend: b, LogPath: path, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		b.deliver = func(d map[string]BackendDecision) { s.applyDecisions(d, "watch") }
		return s, b
	}
	s1, b := start(logPath)

	type key struct{ tenant, key string }
	var ids []string
	var keys []key
	decide := func() BackendDecision {
		outcomes := []string{"accepted-local", "accepted-distributed", "rejected"}
		return BackendDecision{Outcome: outcomes[rng.Intn(len(outcomes))], Latency: float64(rng.Intn(80)) / 8}
	}
	body := func(k key) string {
		sub := SubmitRequest{Tenant: k.tenant, ClientKey: k.key, At: float64(rng.Intn(4)) / 2,
			Deadline: 1 + float64(rng.Intn(200))/4, Graph: json.RawMessage(testGraph)}
		raw, err := json.Marshal(sub)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	// submit posts a new job, keyed or not, and notes its id and key.
	submit := func(keyed bool) {
		t.Helper()
		k := key{tenant: []string{"acme", "zeta"}[rng.Intn(2)]}
		if keyed {
			// Few key names, so a key is often taken by the other tenant.
			k.key = "k" + strconv.Itoa(len(keys)/2)
			if slices.Contains(keys, k) {
				k.key += "'"
			}
			keys = append(keys, k)
		}
		code, reply := post(s1, body(k))
		var j Job
		if err := json.Unmarshal([]byte(reply), &j); code != http.StatusAccepted || err != nil {
			t.Fatalf("submit: %d %s", code, reply)
		}
		ids = append(ids, j.ID)
	}
	for ops := 20 + rng.Intn(40); ops > 0; ops-- {
		switch op := rng.Intn(9); {
		case op == 0 || op == 1:
			submit(false)
		case op == 2:
			submit(true)
		case op == 3 && len(keys) > 0: // a retry of a key
			k := keys[rng.Intn(len(keys))]
			if code, reply := post(s1, body(k)); code != http.StatusOK {
				t.Fatalf("retry of %v: %d %s", k, code, reply)
			}
		case op == 4: // the inline forward fails: the job stays queued
			b.mu.Lock()
			b.fail = true
			b.mu.Unlock()
			submit(rng.Intn(2) == 0)
		case op == 5: // the verdict is back before the forward returns
			d := decide()
			b.mu.Lock()
			b.overtake = &d
			b.mu.Unlock()
			submit(rng.Intn(2) == 0)
		case op == 6 || op == 7: // the cluster decides a job, delivered now or polled later
			b.mu.Lock()
			if len(b.pending) == 0 {
				b.mu.Unlock()
				continue
			}
			i := rng.Intn(len(b.pending))
			id := b.pending[i]
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			d := decide()
			b.decided[id] = d
			b.mu.Unlock()
			if op == 6 {
				s1.applyDecisions(map[string]BackendDecision{id: d}, "watch")
			}
		case op == 8: // a tick: queued jobs go out again, verdicts are polled
			s1.PollNow()
		}
	}

	byID := make(map[string]string)
	for _, id := range ids {
		byID[id] = jobJSON(t, s1, id)
	}
	byKey := make(map[key]string)
	for _, k := range keys {
		code, reply := post(s1, body(k))
		if code != http.StatusOK {
			t.Fatalf("retry of %v: %d %s", k, code, reply)
		}
		byKey[k] = reply
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if compacted {
		l, _, err := joblog.Open(logPath, joblog.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			id := "f" + strconv.Itoa(i)
			if err := l.AppendNoWait(
				joblog.Record{Type: joblog.TypeSubmitted, ID: id, Tenant: "filler", Deadline: 40, Graph: filler},
				joblog.Record{Type: joblog.TypeForwarded, ID: id, Tenant: "filler", ClusterID: "c" + id},
				joblog.Record{Type: joblog.TypeDecided, ID: id, Tenant: "filler", ClusterID: "c" + id, Outcome: "rejected"},
			); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if records := readLog(t, logPath); records[0].Type != joblog.TypeCheckpoint {
			t.Fatalf("the log did not compact: it starts with %+v", records[0])
		}
	}
	image, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	s2, _ := start(logPath)
	for _, id := range ids {
		if got := jobJSON(t, s2, id); got != byID[id] {
			t.Errorf("job %s after the restart:\n%s\nbefore it:\n%s", id, got, byID[id])
		}
	}
	for _, k := range keys {
		if code, got := post(s2, body(k)); code != http.StatusOK || got != byKey[k] {
			t.Errorf("a retry of %v after the restart: %d\n%s\nbefore it:\n%s", k, code, got, byKey[k])
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A prefix of the log: cut at a record boundary, perhaps with a few
	// bytes of the next record behind it.
	ends := append([]int{0}, frameEnds(t, image)...)
	i := rng.Intn(len(ends))
	cut := ends[i]
	if i+1 < len(ends) && rng.Intn(2) == 0 {
		cut += 1 + rng.Intn(ends[i+1]-cut-1)
	}
	prefix := filepath.Join(dir, "prefix.wal")
	if err := os.WriteFile(prefix, image[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	want := joblog.Summarize(readLog(t, prefix))
	restarted := filepath.Join(dir, "restarted.wal")
	if err := os.WriteFile(restarted, image[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	s3, _ := start(restarted)
	defer s3.Close()
	for _, id := range ids {
		w := httptest.NewRecorder()
		s3.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		j := want.Job(id)
		switch {
		case j == nil && w.Code != http.StatusNotFound:
			t.Errorf("job %s, not in the prefix, answered %d %s", id, w.Code, w.Body)
		case j != nil && (w.Code != http.StatusOK || w.Body.String() != summarizedJSON(j)):
			t.Errorf("job %s on the prefix: %d\n%s\nSummarize has\n%s", id, w.Code, w.Body, summarizedJSON(j))
		}
	}
	var lost []key
	for _, k := range keys {
		j := want.Keyed(k.tenant, k.key)
		if j == nil {
			lost = append(lost, k)
			continue
		}
		if code, got := post(s3, body(k)); code != http.StatusOK || got != summarizedJSON(j) {
			t.Errorf("a retry of %v on the prefix: %d\n%s\nSummarize has\n%s", k, code, got, summarizedJSON(j))
		}
	}
	// A key the prefix lost names no job: its retry is a new submission.
	for _, k := range lost {
		if code, got := post(s3, body(k)); code != http.StatusAccepted {
			t.Errorf("a retry of %v, lost with the cut: %d %s", k, code, got)
		}
	}
}
