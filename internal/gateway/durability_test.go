package gateway

import (
	"encoding/binary"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/joblog"
)

const acmeJob = `{"tenant":"acme","deadline":40,"graph":` + testGraph + `}`

// readLog re-opens a gateway's log the way a restart would.
func readLog(t *testing.T, path string) []joblog.Record {
	t.Helper()
	l, records, err := joblog.Open(path, joblog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return records
}

func countRecords(records []joblog.Record, typ joblog.RecordType, id string) int {
	n := 0
	for _, r := range records {
		if r.Type == typ && r.ID == id {
			n++
		}
	}
	return n
}

// Concurrent retries of one (tenant, client_key) make one job: the key is
// reserved in the critical section that assigns the ID, and the duplicates
// wait for the first one's submitted record instead of racing it to the log.
func TestConcurrentClientKeyOneJob(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "gateway.wal")
	fb := newFakeBackend()
	s := newTestServer(t, fb, nil, logPath)
	body := `{"tenant":"acme","client_key":"order-77","deadline":40,"graph":` + testGraph + `}`

	const posts = 16
	codes := make([]int, posts)
	ids := make([]string, posts)
	var wg sync.WaitGroup
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, reply := submit(t, s, body)
			codes[i] = resp.StatusCode
			ids[i], _ = reply["id"].(string)
		}(i)
	}
	wg.Wait()

	accepted, duplicates := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			duplicates++
		default:
			t.Errorf("post %d: status %d", i, code)
		}
		if ids[i] != ids[0] || ids[i] == "" {
			t.Errorf("post %d answered with job %q, post 0 with %q", i, ids[i], ids[0])
		}
	}
	if accepted != 1 || duplicates != posts-1 {
		t.Errorf("%d posts: %d x 202 and %d x 200, want 1 and %d", posts, accepted, duplicates, posts-1)
	}
	s.mu.Lock()
	jobs, reserving := len(s.jobs), len(s.reserving)
	s.mu.Unlock()
	if jobs != 1 || reserving != 0 {
		t.Errorf("the server holds %d jobs and %d reservations, want 1 and 0", jobs, reserving)
	}
	if fb.submitted != 1 {
		t.Errorf("the cluster saw %d submissions, want 1", fb.submitted)
	}
	if n := countRecords(readLog(t, logPath), joblog.TypeSubmitted, ids[0]); n != 1 {
		t.Errorf("the log holds %d submitted records for %s, want 1", n, ids[0])
	}
}

// A submission whose append fails gives its key back: the retry is a new
// attempt, not a duplicate of a job that does not exist.
func TestFailedAppendReleasesClientKey(t *testing.T) {
	s := newTestServer(t, newFakeBackend(), nil, "")
	body := `{"tenant":"acme","client_key":"k","deadline":40,"graph":` + testGraph + `}`
	s.log.Close() // every append fails from here on
	for i := 0; i < 2; i++ {
		if resp, reply := submit(t, s, body); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("post %d on a closed log: %v %v", i, resp.Status, reply)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 0 || len(s.byClientKey) != 0 || len(s.reserving) != 0 {
		t.Errorf("failed submissions left %d jobs, %d keys, %d reservations", len(s.jobs), len(s.byClientKey), len(s.reserving))
	}
}

// One fsync stands between a submission and its 202 — the submitted record's
// — although the reply already says forwarded; the forwarded and decided
// records are flushed by the next tick, and a tick with nothing to flush
// leaves the disk alone.
func TestAckWaitsForOneFsync(t *testing.T) {
	var syncs atomic.Int64
	fb := newFakeBackend()
	logPath := filepath.Join(t.TempDir(), "gateway.wal")
	s, err := New(Options{
		Tenants: map[string]Quota{"acme": {Rate: 1000, Burst: 1000}}, Backend: fb, LogPath: logPath,
		Log:          joblog.Options{OnSync: func(time.Duration) { syncs.Add(1) }},
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobs = 5
	var ids []string
	for i := 1; i <= jobs; i++ {
		resp, reply := submit(t, s, acmeJob)
		if resp.StatusCode != http.StatusAccepted || reply["state"] != StateForwarded {
			t.Fatalf("submit %d: %v %v", i, resp.Status, reply)
		}
		ids = append(ids, reply["id"].(string))
		if got := syncs.Load(); got != int64(i) {
			t.Fatalf("%d fsyncs after %d acks, want one each", got, i)
		}
	}
	// The last forwarded record is written and not yet flushed; a reader of
	// the file sees it all the same.
	if n := countRecords(readLog(t, logPath), joblog.TypeForwarded, ids[jobs-1]); n != 1 {
		t.Errorf("%d forwarded records for %s in the file, want 1", n, ids[jobs-1])
	}

	fb.decideAll("accepted-local")
	s.PollNow() // five decided records in one write, one flush for them and the forwarded record
	if got := syncs.Load(); got != jobs+1 {
		t.Errorf("%d fsyncs after the deciding tick, want %d", got, jobs+1)
	}
	s.PollNow()
	s.PollNow()
	if got := syncs.Load(); got != jobs+1 {
		t.Errorf("idle ticks fsynced: %d fsyncs, want %d", got, jobs+1)
	}
	if !strings.Contains(s.MetricsText(), "rtds_gateway_joblog_records_total 15") {
		t.Errorf("15 records were logged; metrics say:\n%s", s.MetricsText())
	}
}

// A job's graph is held while the gateway may have to submit it, and not a
// moment longer: not once it is forwarded, not after a restart on a log that
// says it was.
func TestGraphHeldOnlyWhileQueued(t *testing.T) {
	check := func(t *testing.T, s *Server, wantQueued, wantRest int) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		queued, rest := 0, 0
		for id, j := range s.jobs {
			if j.State == StateQueued {
				queued++
				if string(j.graph) != testGraph {
					t.Errorf("queued job %s holds %q, not its graph", id, j.graph)
				}
				continue
			}
			rest++
			if j.graph != nil {
				t.Errorf("%s job %s still holds %d graph bytes", j.State, id, len(j.graph))
			}
		}
		if queued != wantQueued || rest != wantRest {
			t.Errorf("%d queued and %d forwarded or decided jobs, want %d and %d", queued, rest, wantQueued, wantRest)
		}
	}

	logPath := filepath.Join(t.TempDir(), "gateway.wal")
	fb := newFakeBackend()
	s1 := newTestServer(t, fb, nil, logPath)
	for i := 0; i < 4; i++ { // two end up decided, two forwarded
		if resp, _ := submit(t, s1, acmeJob); resp.StatusCode != http.StatusAccepted {
			t.Fatal(resp.Status)
		}
		if i == 1 {
			fb.decideAll("rejected")
			s1.PollNow()
		}
	}
	fb.failNext = 3
	for i := 0; i < 3; i++ { // the cluster is away: these stay queued
		if resp, _ := submit(t, s1, acmeJob); resp.StatusCode != http.StatusAccepted {
			t.Fatal(resp.Status)
		}
	}
	check(t, s1, 3, 4)
	// "SIGKILL": s1 is left as it is; what it wrote is in the file.

	fb2 := newFakeBackend()
	fb2.failNext = 1000
	s2 := newTestServer(t, fb2, nil, logPath)
	check(t, s2, 3, 4)
	fb2.mu.Lock()
	fb2.failNext = 0
	fb2.mu.Unlock()
	s2.PollNow() // the queued ones go out, with the bytes that were acked
	check(t, s2, 0, 7)
	if len(fb2.graphs) != 3 {
		t.Fatalf("%d jobs re-submitted, want 3", len(fb2.graphs))
	}
	for _, g := range fb2.graphs {
		if g != testGraph {
			t.Errorf("re-submitted %s", g)
		}
	}
}

// frameEnds walks a log image by its length fields (u32 length, u32 CRC,
// body) and returns the offset at which each record ends.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for at := 0; at < len(data); {
		if len(data)-at < 8 {
			t.Fatalf("log image ends inside a header at %d", at)
		}
		at += 8 + int(binary.LittleEndian.Uint32(data[at:]))
		ends = append(ends, at)
	}
	return ends
}

// A power cut leaves a prefix of the log. Cut right after a job's submitted
// record the job is forwarded again; cut after its forwarded record the
// cluster is asked again. Either way the client sees one decision.
func TestRestartOnCutLog(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	fb := newFakeBackend()
	s1 := newTestServer(t, fb, nil, full)
	resp, reply := submit(t, s1, acmeJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatal(resp.Status)
	}
	id := reply["id"].(string)
	fb.decideAll("accepted-local")
	s1.PollNow()
	image, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, image)
	if len(ends) != 3 {
		t.Fatalf("one job's life is %d records, want submitted, forwarded, decided", len(ends))
	}

	for _, tc := range []struct {
		name        string
		records     int // of the job's three that survived
		resubmitted int
	}{
		{"after submitted", 1, 1},
		{"after forwarded", 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cut := filepath.Join(t.TempDir(), "cut.wal")
			// A few bytes of the next record made it too: a torn tail.
			if err := os.WriteFile(cut, image[:ends[tc.records-1]+5], 0o644); err != nil {
				t.Fatal(err)
			}
			before := fb.submitted
			s2 := newTestServer(t, fb, nil, cut) // the cluster outlived the gateway
			want := StateQueued
			if tc.resubmitted == 0 {
				want = StateForwarded
			}
			if j := jobState(t, s2, id); j.State != want {
				t.Fatalf("restored as %+v, want %s", j, want)
			}
			s2.PollNow()
			fb.decideAll("accepted-local")
			s2.PollNow()
			s2.PollNow()
			if got := fb.submitted - before; got != tc.resubmitted {
				t.Errorf("%d re-submissions, want %d", got, tc.resubmitted)
			}
			if j := jobState(t, s2, id); j.State != StateDecided || j.Outcome != "accepted-local" {
				t.Errorf("after the restart: %+v", j)
			}
			if !strings.Contains(s2.MetricsText(), `rtds_gateway_decisions_total{tenant="acme",outcome="accepted-local"} 1`) {
				t.Errorf("not exactly one decision counted:\n%s", s2.MetricsText())
			}
			records := readLog(t, cut)
			if n := countRecords(records, joblog.TypeDecided, id); n != 1 {
				t.Errorf("%d decided records for %s after the restart, want 1", n, id)
			}
			if n := countRecords(records, joblog.TypeSubmitted, id); n != 1 {
				t.Errorf("%d submitted records for %s, want 1", n, id)
			}
		})
	}
}
