package joblog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// compactNow waits out a running compaction, then compacts everything
// written so far and waits for that one to end. The log must be quiet.
func compactNow(t testing.TB, l *Log) {
	t.Helper()
	l.compactors.Wait()
	l.mu.Lock()
	l.startCompaction()
	l.mu.Unlock()
	l.compactors.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ckpt.end != l.size {
		t.Fatalf("after a compaction of a quiet log, the checkpoint is %d of its %d bytes", l.ckpt.end, l.size)
	}
}

// besideLog fails t unless the log is the only file in its directory.
func besideLog(t *testing.T, path string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Errorf("%s is left beside the log", e.Name())
		}
	}
}

// randomStream is n records of every type, whatever a caller could append:
// duplicate submissions, decisions before forwards and without outcomes,
// records for ids never submitted, checkpoint records in the middle, fields
// a type does not use, and sequence numbers up to the top of their range.
func randomStream(rng *rand.Rand, n int) []Record {
	str := func(prefix string, k int) string {
		if rng.Intn(4) == 0 {
			return ""
		}
		return fmt.Sprintf("%s%d", prefix, rng.Intn(k))
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Record{ID: fmt.Sprintf("g%d", rng.Intn(n/3+1)), Seq: uint64(rng.Intn(2 * n)),
			Tenant: str("t", 3), ClientKey: str("k", n), ClusterID: str("j", n), Outcome: str("o", 3),
			At: rng.Float64(), Deadline: rng.Float64() * 100, DecisionLatency: rng.Float64()}
		if rng.Intn(40) == 0 {
			r.Seq = math.MaxUint64 - uint64(rng.Intn(2))
		}
		if rng.Intn(3) > 0 {
			r.Graph = randomGraph(rng, 12+rng.Intn(300))
		}
		switch k := rng.Intn(20); {
		case k < 8:
			r.Type = TypeSubmitted
		case k < 12:
			r.Type = TypeForwarded
		case k < 17:
			r.Type = TypeDecided
		case k < 19:
			r.Type = TypeFolded
		default:
			r.Type = TypeCheckpoint
			r.At = float64(rng.Intn(2 * n))
		}
		recs = append(recs, r)
	}
	return recs
}

// appendAll writes recs to l, waiting for some of them and not for others.
func appendAll(t testing.TB, l *Log, rng *rand.Rand, recs []Record) {
	t.Helper()
	for len(recs) > 0 {
		k := min(len(recs), 1+rng.Intn(4))
		var err error
		if rng.Intn(3) == 0 {
			err = l.Append(recs[0])
			k = 1
		} else {
			err = l.AppendNoWait(recs[:k]...)
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = recs[k:]
	}
}

// compactedImage is the log image of the records in data compacted into a
// checkpoint, with the last few appended after it as a tail.
func compactedImage(t testing.TB, data []byte) []byte {
	records, _, err := scan(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, appendOnly())
	cut := len(records) * 3 / 4
	if err := l.AppendNoWait(records[:cut]...); err != nil {
		t.Fatal(err)
	}
	compactNow(t, l)
	if err := l.AppendNoWait(records[cut:]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// recoverState is what Recover of path gives, or fails t.
func recoverState(t *testing.T, path string, opts Options) *Replay {
	t.Helper()
	l, rep, err := Recover(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// Recover after any number of compactions gives what Recover of the stream
// as it was appended gives: the same jobs in the same order, each with the
// same submitted record, cluster id, outcome and latency, the same queued
// graphs and the same NextSeq. The stream is written over a few sessions,
// each restarting on the last one's checkpoint, with floors that make the
// log compact as it goes and once more by hand.
func TestCompactionKeepsTheFold(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := randomStream(rng, 20+rng.Intn(600))
		want := Summarize(recs)
		path := filepath.Join(t.TempDir(), "joblog")
		opts := Options{NoSync: true, compactFloor: 1 + rng.Int63n(8<<10)}
		for rest := recs; len(rest) > 0; {
			k := min(len(rest), 1+rng.Intn(len(recs)/2+1))
			l, _, err := Recover(path, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			appendAll(t, l, rng, rest[:k])
			if rng.Intn(2) == 0 {
				compactNow(t, l)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
		}
		what := fmt.Sprintf("seed %d, %d records", seed, len(recs))
		sameReplay(t, what, recoverState(t, path, opts), nil, want, nil)
		l, records, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		sameReplay(t, what+", Summarize of Open", Summarize(records), nil, want, nil)
		besideLog(t, path)
	}
}

// A log compacts itself as it grows, whoever appends and however: after
// 200,000 decided jobs it is a small part of what it would be append-only,
// and it holds the jobs it would. The appender lets compactions catch up
// every hundred jobs, as a log appended to at a real gateway's rate does.
func TestCompactedLogIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("appends 200,000 jobs")
	}
	const jobs = 200000
	rng := rand.New(rand.NewSource(9))
	graphs := []json.RawMessage{randomGraph(rng, 640), randomGraph(rng, 640), randomGraph(rng, 640)}
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, Options{NoSync: true})
	var appended int64
	for i := 1; i <= jobs; i++ {
		recs := decidedJob(i, graphs[i%len(graphs)])
		for _, r := range recs {
			appended += frameHeader + int64(bodySize(r))
		}
		if err := l.AppendNoWait(recs...); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			l.compactors.Wait()
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d decided jobs: %d MB appended, the log is %.1f MB (%.3f)", jobs, appended>>20, float64(st.Size())/(1<<20), float64(st.Size())/float64(appended))
	if st.Size() >= appended/5 {
		t.Errorf("after %d decided jobs the log is %d bytes, %d appended: want under a fifth", jobs, st.Size(), appended)
	}
	rep := recoverState(t, path, Options{NoSync: true})
	if len(rep.Jobs) != jobs || rep.NextSeq != jobs+1 {
		t.Fatalf("%d jobs and NextSeq %d recovered, want %d and %d", len(rep.Jobs), rep.NextSeq, jobs, jobs+1)
	}
	for i, j := range rep.Jobs {
		if j.Submitted.ID != fmt.Sprintf("g%d", i+1) || j.Outcome != "accepted-local" || j.ClusterID != fmt.Sprintf("p%d@0", i+1) {
			t.Fatalf("job %d recovered as %+v", i, j)
		}
	}
}

// A compaction holds the tail's state and a few buffers, never a second copy
// of the checkpoint's jobs: compacting a short tail onto a checkpoint of
// 100,000 jobs keeps the live heap within a few megabytes of where it
// started, where a Replay of those jobs alone is tens.
func TestCompactionHeapIsTheTail(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const jobs, tail = 100000, 1000
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var peak uint64
	sampling := false
	opts := appendOnly()
	opts.failpoint = func(w syncWriter) syncWriter {
		if f := w.(*os.File); strings.HasSuffix(f.Name(), compactSuffix) && sampling {
			return sampledFile{f, func() { peak = max(peak, live()) }}
		}
		return w
	}
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, opts)
	defer l.Close()
	graph := randomGraph(rand.New(rand.NewSource(4)), 640)
	for i := 1; i <= jobs+tail; i++ {
		if i == jobs+1 {
			compactNow(t, l)
		}
		if err := l.AppendNoWait(decidedJob(i, graph)...); err != nil {
			t.Fatal(err)
		}
	}
	tailBytes := l.size - l.ckpt.end
	base := live()
	sampling = true
	compactNow(t, l)
	grown := int64(peak) - int64(base)
	t.Logf("compacting a %d kB tail onto %d checkpointed jobs (%d kB): the live heap grew %d kB",
		tailBytes>>10, jobs, l.ckpt.end>>10, grown>>10)
	if peak == 0 {
		t.Fatal("the compaction wrote nothing through the failpoint")
	}
	if bound := 4*tailBytes + 2<<20; grown > bound {
		t.Errorf("the compaction held %d kB live, want at most %d kB: its memory follows the tail", grown>>10, bound>>10)
	}
}

// sampledFile calls sample on every write.
type sampledFile struct {
	*os.File
	sample func()
}

func (s sampledFile) Write(p []byte) (int, error) {
	s.sample()
	return s.File.Write(p)
}

// crashPoint is a failpoint that lets every write and fsync through, except
// at one point of a compaction, where it saves the log's directory as a
// crash there would leave it and fails as the crash would:
//
//   - "tear": the first write to <path>.compact, half written;
//   - "written": the first fsync of <path>.compact, the checkpoint whole;
//   - "renamed": the fsync of the directory, the new file renamed over the
//     log and the descriptor not yet swapped.
type crashPoint struct {
	at    string
	path  string
	image map[string][]byte // file name -> bytes at the crash
}

func (c *crashPoint) wrap(w syncWriter) syncWriter { return crashFile{w.(*os.File), c} }

// crash saves the image and reports true if the crash is due at point.
func (c *crashPoint) crash(point string) bool {
	if c.at != point || c.image != nil {
		return false
	}
	c.image = make(map[string][]byte)
	for _, name := range []string{c.path, c.path + compactSuffix} {
		if data, err := os.ReadFile(name); err == nil {
			c.image[filepath.Base(name)] = data
		}
	}
	return true
}

type crashFile struct {
	*os.File
	c *crashPoint
}

func (f crashFile) Write(p []byte) (int, error) {
	if strings.HasSuffix(f.Name(), compactSuffix) && f.c.at == "tear" && f.c.image == nil {
		n, _ := f.File.Write(p[:len(p)/2])
		f.c.crash("tear")
		return n, errCrashed
	}
	return f.File.Write(p)
}

func (f crashFile) Sync() error {
	if (strings.HasSuffix(f.Name(), compactSuffix) && f.c.crash("written")) ||
		(f.Name() == filepath.Dir(f.c.path) && f.c.crash("renamed")) {
		return errCrashed
	}
	return f.File.Sync()
}

// A crash anywhere in a compaction loses nothing: the restart recovers the
// jobs the log held before the compaction began, and removes what the
// compaction left beside the log. The crashes are mid-write of the new
// file (a torn checkpoint frame), after it is written and synced, and after
// the rename but before the descriptor swap. A compaction cut short before
// the rename leaves the log working; one whose rename may not be durable
// poisons it.
func TestCrashDuringCompaction(t *testing.T) {
	for _, at := range []string{"tear", "written", "renamed"} {
		t.Run(at, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			dir := t.TempDir()
			path := filepath.Join(dir, "joblog")
			c := &crashPoint{path: path} // armed for the second compaction
			opts := Options{failpoint: c.wrap, compactFloor: math.MaxInt64}
			l, _ := openOrDie(t, path, opts)
			// Two checkpoints' worth: the crash hits the second compaction,
			// which streams the first one's checkpoint.
			var recs []Record
			for i := 1; i <= 3000; i++ {
				job := decidedJob(i, randomGraph(rng, 200))
				switch i % 7 {
				case 0:
					job = job[:1] // queued: its graph goes into the checkpoint
				case 1:
					job = job[:2] // forwarded
				}
				recs = append(recs, job...)
				if i == 1500 {
					if err := l.AppendNoWait(recs...); err != nil {
						t.Fatal(err)
					}
					compactNow(t, l)
					recs = recs[:0]
				}
			}
			// Some of the first checkpoint's jobs are decided in the tail.
			for i := 1; i <= 1500; i += 7 * 11 {
				recs = append(recs, Record{Type: TypeDecided, ID: fmt.Sprintf("g%d", i), Outcome: "rejected", DecisionLatency: 3})
			}
			if err := l.AppendNoWait(recs...); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			reader, all, err := Open(path, appendOnly())
			if err != nil {
				t.Fatal(err)
			}
			reader.Close() // it appended nothing
			want := Summarize(all)

			c.at = at
			l.mu.Lock()
			l.startCompaction()
			l.mu.Unlock()
			l.compactors.Wait()
			if c.image == nil {
				t.Fatal("the crash point was never reached")
			}

			restart := filepath.Join(t.TempDir(), "joblog")
			for name, data := range c.image {
				if err := os.WriteFile(filepath.Join(filepath.Dir(restart), name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, left := c.image["joblog"+compactSuffix]; left != (at != "renamed") {
				t.Errorf("the crash left <path>.compact: %v", left)
			}
			sameReplay(t, "the restart", recoverState(t, restart, Options{NoSync: true}), nil, want, nil)
			besideLog(t, restart)

			// The log that lived through it.
			err = l.Append(rec(TypeSubmitted, "after", 1))
			if at == "renamed" {
				if !errors.Is(err, errCrashed) {
					t.Errorf("an append after an undurable rename returned %v, want the failure that poisoned the log", err)
				}
				l.Close()
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			besideLog(t, path)
			if got := recoverState(t, path, Options{NoSync: true}); len(got.Jobs) != len(want.Jobs)+1 {
				t.Errorf("the log recovered %d jobs after the failed compaction and one more append, want %d", len(got.Jobs), len(want.Jobs)+1)
			}
		})
	}
}

// Open removes a <path>.compact that a crash left behind.
func TestOpenRemovesStrayCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	if err := os.WriteFile(path+compactSuffix, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _ := openOrDie(t, path, testOpts())
	besideLog(t, path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// slowCompaction is a failpoint that makes every write of a compaction
// slow, so that Close finds one running.
func slowCompaction(w syncWriter) syncWriter {
	if f := w.(*os.File); strings.HasSuffix(f.Name(), compactSuffix) {
		return sampledFile{f, func() { time.Sleep(time.Millisecond) }}
	}
	return w
}

// Close waits for a running compaction, so that nothing is left beside the
// log, and what it leaves recovers whole.
func TestCloseLeavesNothingBesideTheLog(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	path := filepath.Join(t.TempDir(), "joblog")
	opts := Options{NoSync: true, compactFloor: 32 << 10, failpoint: slowCompaction}
	l, _ := openOrDie(t, path, opts)
	var recs []Record
	for i := 1; ; i++ {
		job := decidedJob(i, randomGraph(rng, 400))
		recs = append(recs, job...)
		if err := l.AppendNoWait(job...); err != nil {
			t.Fatal(err)
		}
		l.mu.Lock()
		running := l.compacting
		l.mu.Unlock()
		if running {
			break
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	besideLog(t, path)
	sameReplay(t, "after Close", recoverState(t, path, opts), nil, Summarize(recs), nil)
}

// Compaction runs beside appenders of both kinds and Syncs: every job each
// appender wrote recovers as it wrote it, and the log compacted on the way.
// CI runs this under -race, many times.
func TestCompactionUnderConcurrentAppends(t *testing.T) {
	const writers, each = 4, 120
	path := filepath.Join(t.TempDir(), "joblog")
	opts := Options{compactFloor: 16 << 10}
	l, _ := openOrDie(t, path, opts)
	var mu sync.Mutex
	var all []Record // each writer's records in its order; the writers' ids are disjoint
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []Record
			for i := 0; i < each; i++ {
				job := decidedJob(w*each+i+1, randomGraph(rng, 300))
				job = job[:1+rng.Intn(3)]
				var err error
				switch i % 4 {
				case 0:
					err = l.Append(job[0])
					if err == nil && len(job) > 1 {
						err = l.AppendNoWait(job[1:]...)
					}
				case 1:
					if err = l.AppendNoWait(job...); err == nil {
						err = l.Sync()
					}
				default:
					for _, r := range job {
						if err == nil {
							err = l.Append(r)
						}
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, job...)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	besideLog(t, path)
	l, got, err := Recover(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	compacted := l.ckpt.jobs > 0
	l.Close()
	want := Summarize(all)
	if len(got.Jobs) != len(want.Jobs) || got.NextSeq != want.NextSeq {
		t.Fatalf("%d jobs and NextSeq %d recovered, want %d and %d", len(got.Jobs), got.NextSeq, len(want.Jobs), want.NextSeq)
	}
	for _, j := range got.Jobs {
		if g, w := fmt.Sprintf("%#v", *j), fmt.Sprintf("%#v", *want.byID[j.Submitted.ID]); g != w {
			t.Errorf("job recovered as\n%s\nwritten as\n%s", g, w)
		}
	}
	if !compacted {
		t.Error("the log never compacted")
	}
}

// checkpointImage is testdata/checkpoint.wal as today's writer makes it:
// v1.wal's records compacted into a checkpoint, and a tail after it that
// decides g4 and submits g5.
func checkpointImage(t *testing.T) []byte {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := scan(v1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, appendOnly())
	if err := l.AppendNoWait(records...); err != nil {
		t.Fatal(err)
	}
	compactNow(t, l)
	if err := l.AppendNoWait(
		Record{Type: TypeDecided, ID: "g4", Tenant: "acme", ClusterID: "j3@2", Outcome: "accepted-distributed", DecisionLatency: 2.5},
		Record{Type: TypeSubmitted, ID: "g5", Seq: 5, Tenant: "zeta", ClientKey: "k5", At: 1.5, Deadline: 30, Graph: json.RawMessage(`{"name":"g5"}`)},
	); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// testdata/checkpoint.wal, a checkpoint of v1.wal's four jobs and a tail
// of two records, recovers to the state v1.wal and its tail give, and
// today's compaction writes exactly its bytes: the checkpoint format does
// not drift unnoticed.
func TestCheckpointFormatReplays(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointImage(t), golden) {
		t.Error("today's compaction writes bytes other than checkpoint.wal's")
	}
	records, _, err := scan(golden)
	if err != nil {
		t.Fatal(err)
	}
	if h := records[0]; h.Type != TypeCheckpoint || h.Seq != 5 || h.At != 4 {
		t.Errorf("the checkpoint opens with %+v, want a checkpoint record of Seq 5 and At 4", h)
	}

	type state struct {
		id, tenant, key, cluster, outcome string
		deadline, latency                 float64
		graph                             bool
	}
	want := []state{
		{"g1", "acme", "k1", "j1@0", "accepted-local", 40, 1.5, false},
		{"g2", "zeta", "", "", "", 12.25, 0, true},
		{"g3", "acme", "k<3>&", "j2@1", "rejected", 7, 0, false},
		{"g4", "acme", "", "j3@2", "accepted-distributed", 9, 2.5, false},
		{"g5", "zeta", "k5", "", "", 30, 0, true},
	}
	path := filepath.Join(t.TempDir(), "joblog")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rep, err := Recover(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.ckpt.jobs != 4 || len(rep.Jobs) != len(want) || rep.NextSeq != 6 {
		t.Fatalf("%d jobs, %d of them checkpointed, NextSeq %d; want %d, 4 and 6", len(rep.Jobs), l.ckpt.jobs, rep.NextSeq, len(want))
	}
	for i, j := range rep.Jobs {
		got := state{j.Submitted.ID, j.Submitted.Tenant, j.Submitted.ClientKey, j.ClusterID, j.Outcome,
			j.Submitted.Deadline, j.DecisionLatency, j.Submitted.Graph != nil}
		if got != want[i] {
			t.Errorf("job %d: %+v, want %+v", i, got, want[i])
		}
	}
	if g := rep.Jobs[1].Submitted.Graph; string(g) == "" || !json.Valid(g) {
		t.Errorf("the queued job's graph came back as %q", g)
	}
}
