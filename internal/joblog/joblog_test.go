package joblog

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wallclock"
)

// testOpts is the default: real fsync (tmp dirs are cheap and the sync path
// is exactly what the failpoint tests target).
func testOpts() Options { return Options{} }

// appendOnly is a log that never compacts: for tests of the record stream
// as it is appended.
func appendOnly() Options { return Options{NoSync: true, compactFloor: math.MaxInt64} }

func rec(t RecordType, id string, seq uint64) Record {
	return Record{Type: t, ID: id, Seq: seq, Tenant: "acme",
		Deadline: 40, Graph: json.RawMessage(`{"name":"g"}`)}
}

func openOrDie(t testing.TB, path string, opts Options) (*Log, []Record) {
	t.Helper()
	l, records, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, records
}

func TestAppendAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	l, records := openOrDie(t, path, testOpts())
	if len(records) != 0 {
		t.Fatalf("fresh log replayed %d records", len(records))
	}
	want := []Record{
		rec(TypeSubmitted, "g0", 0),
		{Type: TypeForwarded, ID: "g0", ClusterID: "j1@2"},
		rec(TypeSubmitted, "g1", 1),
		{Type: TypeDecided, ID: "g0", Outcome: "accepted-distributed"},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := openOrDie(t, path, testOpts())
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	rep := Summarize(got)
	if len(rep.Jobs) != 2 {
		t.Fatalf("summarized %d jobs, want 2", len(rep.Jobs))
	}
	if rep.NextSeq != 2 {
		t.Errorf("NextSeq = %d, want 2", rep.NextSeq)
	}
	if j := rep.Jobs[0]; j.Undecided() || j.ClusterID != "j1@2" || j.Outcome != "accepted-distributed" {
		t.Errorf("job g0 state wrong: %+v", j)
	}
	if j := rep.Jobs[1]; !j.Undecided() || j.ClusterID != "" {
		t.Errorf("job g1 should be undecided and unforwarded: %+v", j)
	}
}

// A torn final record — the crash-mid-write shape — must be truncated away
// on recovery, and the log must keep working from the truncated offset.
func TestTornFinalRecordTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(data []byte) []byte
	}{
		{"half the header", func(d []byte) []byte { return d[:len(d)-3] }},
		{"header only", nil}, // filled below: cut back to last header
		{"half the body", func(d []byte) []byte { return d[:len(d)-10] }},
		{"corrupt tail crc", func(d []byte) []byte {
			d[len(d)-1] ^= 0xff
			return d
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "joblog")
			l, _ := openOrDie(t, path, testOpts())
			for i := 0; i < 3; i++ {
				if err := l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tear.cut != nil {
				data = tear.cut(data)
			} else {
				// Cut everything past the last record's frame header.
				_, valid, err := scan(data[:len(data)-1])
				if err != nil {
					t.Fatal(err)
				}
				data = data[:valid+frameHeader]
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, records := openOrDie(t, path, testOpts())
			if len(records) != 2 {
				t.Fatalf("replayed %d records after tear, want 2", len(records))
			}
			// The truncated log must accept appends cleanly…
			if err := l2.Append(rec(TypeSubmitted, "g9", 9)); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			// …and a third recovery sees exactly the two survivors plus the
			// new record.
			l3, records := openOrDie(t, path, testOpts())
			defer l3.Close()
			if len(records) != 3 || records[2].ID != "g9" {
				t.Fatalf("post-tear append not recovered: %+v", records)
			}
		})
	}
}

// Damage strictly before the tail is corruption, not a torn write: the
// bytes were acknowledged durable. Recovery must refuse.
func TestMidFileCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, testOpts())
	for i := 0; i < 4; i++ {
		if err := l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // flip a bit in the middle of the history
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, testOpts())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption recovered silently: err=%v", err)
	}
}

// Replaying the same history twice (a log written by a process that itself
// replayed) must fold to identical state: duplicate submitted/forwarded/
// decided records collapse onto one job entry.
func TestDuplicateReplayIdempotent(t *testing.T) {
	history := []Record{
		rec(TypeSubmitted, "g0", 0),
		{Type: TypeForwarded, ID: "g0", ClusterID: "j1@0"},
		rec(TypeSubmitted, "g1", 1),
		{Type: TypeDecided, ID: "g0", Outcome: "rejected"},
	}
	once := Summarize(history)
	twice := Summarize(append(append([]Record(nil), history...), history...))
	if len(once.Jobs) != len(twice.Jobs) {
		t.Fatalf("duplicate replay changed job count: %d vs %d", len(once.Jobs), len(twice.Jobs))
	}
	for i := range once.Jobs {
		a, b := once.Jobs[i], twice.Jobs[i]
		if a.Submitted.ID != b.Submitted.ID || a.ClusterID != b.ClusterID || a.Outcome != b.Outcome {
			t.Errorf("job %d diverged under duplicate replay: %+v vs %+v", i, a, b)
		}
	}
	if once.NextSeq != twice.NextSeq {
		t.Errorf("NextSeq diverged: %d vs %d", once.NextSeq, twice.NextSeq)
	}
	// A conflicting duplicate (same id, different outcome) must keep the
	// FIRST decision — the one that was acknowledged first.
	conflicted := append(append([]Record(nil), history...),
		Record{Type: TypeDecided, ID: "g0", Outcome: "accepted-local"})
	if got := Summarize(conflicted).Jobs[0].Outcome; got != "rejected" {
		t.Errorf("later conflicting decision overwrote the first: %q", got)
	}
}

// writeGate holds a writer's first Sync until want Writes have happened, so
// that a test decides who shares an fsync instead of hoping for a race.
type writeGate struct {
	mu     sync.Mutex
	want   int
	writes int
	open   chan struct{}
}

func newWriteGate(want int) *writeGate { return &writeGate{want: want, open: make(chan struct{})} }

func (g *writeGate) wrote() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.writes++; g.writes == g.want {
		close(g.open)
	}
}

func (g *writeGate) wait() {
	if g != nil {
		<-g.open
	}
}

// crashWriter is the failpoint writer: it passes writes through until the
// configured fsync boundary, then drops every byte written after the last
// completed sync — the shape a power cut at a batch boundary leaves when
// the page cache never reached the platter.
type crashWriter struct {
	gate *writeGate // optional: holds every Sync until the gate's writes are in

	mu          sync.Mutex
	synced      []byte // bytes guaranteed durable (made it to a completed Sync)
	buffered    []byte // bytes written since the last completed Sync
	crashOnSync int    // crash when this many syncs have completed
	syncs       int
	crashed     bool
}

var errCrashed = errors.New("joblog_test: injected crash")

func (c *crashWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, errCrashed
	}
	c.buffered = append(c.buffered, p...)
	c.gate.wrote()
	return len(p), nil
}

func (c *crashWriter) Sync() error {
	c.gate.wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return errCrashed
	}
	if c.syncs == c.crashOnSync {
		// The crash hits AT the batch boundary: everything buffered since
		// the last sync is lost, possibly mid-record.
		if tear := len(c.buffered) / 2; tear > 0 {
			c.synced = append(c.synced, c.buffered[:tear]...)
		}
		c.crashed = true
		return errCrashed
	}
	c.synced = append(c.synced, c.buffered...)
	c.buffered = nil
	c.syncs++
	return nil
}

// durableImage is what the disk holds after the "crash".
func (c *crashWriter) durableImage() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.synced...)
}

// reboot recovers from the bytes that actually reached the platter.
func (c *crashWriter) reboot(t *testing.T) []Record {
	t.Helper()
	image := filepath.Join(t.TempDir(), "joblog-rebooted")
	if err := os.WriteFile(image, c.durableImage(), 0o644); err != nil {
		t.Fatal(err)
	}
	l, records := openOrDie(t, image, testOpts())
	l.Close()
	return records
}

// expectPoisoned checks that no write of either kind, and no Sync, succeeds
// after a failed fsync: no acknowledgment can follow a lost write.
func expectPoisoned(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Append(rec(TypeSubmitted, "late", 999)); !errors.Is(err, errCrashed) {
		t.Errorf("Append after the crash returned %v, want the sticky crash error", err)
	}
	if err := l.AppendNoWait(Record{Type: TypeDecided, ID: "late"}); !errors.Is(err, errCrashed) {
		t.Errorf("AppendNoWait after the crash returned %v, want the sticky crash error", err)
	}
	if err := l.Sync(); !errors.Is(err, errCrashed) {
		t.Errorf("Sync after the crash returned %v, want the sticky crash error", err)
	}
	if err := l.Close(); !errors.Is(err, errCrashed) {
		t.Errorf("Close after the crash returned %v, want the sticky crash error", err)
	}
}

// TestFsyncBatchBoundaryCrash injects a crash at an fsync-batch boundary:
// records flushed by completed batches survive; the batch in flight is torn
// mid-record and must truncate away on recovery, leaving a log equal to
// exactly the acknowledged prefix. Waited-on and not-waited-on records
// alternate, and the crash is tried at every one of the first fsyncs.
func TestFsyncBatchBoundaryCrash(t *testing.T) {
	for crashAt := 0; crashAt < 5; crashAt++ {
		t.Run(fmt.Sprintf("sync %d", crashAt), func(t *testing.T) {
			cw := &crashWriter{crashOnSync: crashAt}
			opts := testOpts()
			opts.failpoint = func(syncWriter) syncWriter { return cw }
			l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog-live"), opts)

			var written, acked []string // ids in file order: "g3" submitted, "g3f" forwarded
			for i := 0; ; i++ {
				if i > 100 {
					t.Fatal("crash never fired")
				}
				id := fmt.Sprintf("g%d", i)
				written = append(written, id)
				err := l.Append(rec(TypeSubmitted, id, uint64(i)))
				if err != nil {
					if !errors.Is(err, errCrashed) {
						t.Fatalf("unexpected append error: %v", err)
					}
					break
				}
				acked = append(acked, id)
				// Rides the next Append's fsync.
				if err := l.AppendNoWait(Record{Type: TypeForwarded, ID: id, ClusterID: "j@0"}); err != nil {
					t.Fatalf("AppendNoWait: %v", err)
				}
				written = append(written, id+"f")
			}
			if len(acked) != crashAt {
				t.Errorf("%d appends acknowledged before the crash at sync %d", len(acked), crashAt)
			}
			expectPoisoned(t, l)

			// The recovered log is a prefix of what was written, in order:
			// nothing unacknowledged may resurrect out of order…
			records := cw.reboot(t)
			if len(records) > len(written) {
				t.Fatalf("recovered %d records, %d were written", len(records), len(written))
			}
			recovered := make(map[string]bool)
			for i, r := range records {
				id := r.ID
				if r.Type == TypeForwarded {
					id += "f"
				}
				if id != written[i] {
					t.Errorf("recovered record %d is %s, want %s", i, id, written[i])
				}
				recovered[id] = true
			}
			// …and every Append that returned nil is there: the torn tail can
			// only eat the batch in flight.
			for _, id := range acked {
				if !recovered[id] {
					t.Errorf("acknowledged record %s is not in the recovered log", id)
				}
			}
		})
	}

	// A batch of several waiters: the first fsync is held until all have
	// written and succeeds, so everyone it did not cover shares the second,
	// which fails. The failure must reach every one of them.
	t.Run("shared batch", func(t *testing.T) {
		const n = 16
		cw := &crashWriter{crashOnSync: 1, gate: newWriteGate(2 * n)}
		opts := testOpts()
		opts.failpoint = func(syncWriter) syncWriter { return cw }
		l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog-live"), opts)

		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("g%d", i)
				if err := l.AppendNoWait(Record{Type: TypeForwarded, ID: id, ClusterID: "j@0"}); err != nil {
					errs[i] = fmt.Errorf("AppendNoWait: %w", err)
					return
				}
				errs[i] = l.Append(rec(TypeSubmitted, id, uint64(i)))
			}(i)
		}
		wg.Wait()
		recovered := make(map[string]bool)
		for _, r := range cw.reboot(t) {
			if r.Type == TypeSubmitted {
				recovered[r.ID] = true
			}
		}
		ok := 0
		for i, err := range errs {
			switch {
			case err == nil:
				ok++
				if id := fmt.Sprintf("g%d", i); !recovered[id] {
					t.Errorf("append of %s returned nil and is not in the recovered log", id)
				}
			case !errors.Is(err, errCrashed):
				t.Errorf("append %d: %v, want the crash", i, err)
			}
		}
		if ok == 0 || ok == n {
			t.Errorf("%d of %d appends succeeded; want the first fsync's share to succeed and the rest to fail", ok, n)
		}
		expectPoisoned(t, l)
	})
}

// heldSyncFile is the real file with its first Sync held at a gate.
type heldSyncFile struct {
	syncWriter
	gate *writeGate
}

func (h heldSyncFile) Write(p []byte) (int, error) {
	n, err := h.syncWriter.Write(p)
	h.gate.wrote()
	return n, err
}

func (h heldSyncFile) Sync() error {
	h.gate.wait()
	return h.syncWriter.Sync()
}

// A Sync that finds nothing written since the running fsync began waits for
// that fsync and asks for no other: the gateway's reconcile tick calls Sync
// in the middle of group commits, and each extra flush would be counted as a
// batch that carried no record.
func TestSyncJoinsTheRunningFsync(t *testing.T) {
	syncs := 0
	opts := testOpts()
	opts.OnSync = func(time.Duration) { syncs++ }
	gate := newWriteGate(2)
	opts.failpoint = func(w syncWriter) syncWriter { return heldSyncFile{w, gate} }
	l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog"), opts)

	appended, synced := make(chan error, 1), make(chan error, 1)
	go func() { appended <- l.Append(rec(TypeSubmitted, "g1", 1)) }() // its fsync is held
	for running := false; !running; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		running = l.syncing && !l.dirty
		l.mu.Unlock()
	}
	go func() { synced <- l.Sync() }()
	for joined := 0; joined == 0; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		joined = len(l.joined)
		l.mu.Unlock()
	}
	select {
	case err := <-synced:
		t.Fatalf("Sync returned %v while the fsync covering the log was still running", err)
	default:
	}
	if err := l.AppendNoWait(rec(TypeForwarded, "g1", 2)); err != nil { // second write: opens the gate
		t.Fatal(err)
	}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("%d fsyncs after an Append and a Sync that had nothing of its own to flush; want 1", syncs)
	}
	if err := l.Close(); err != nil { // the record nobody waited for is still to flush
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("%d fsyncs after Close; want 2", syncs)
	}
}

// Concurrent appends share fsync batches and all land durably. No delay is
// configured anywhere: whoever writes while an fsync runs shares the next
// one, so n appenders that all write during the first fsync cost two.
func TestConcurrentAppendsAllDurable(t *testing.T) {
	const n = 64
	path := filepath.Join(t.TempDir(), "joblog")
	syncs := 0
	opts := testOpts()
	opts.OnSync = func(time.Duration) { syncs++ }
	gate := newWriteGate(n)
	opts.failpoint = func(w syncWriter) syncWriter { return heldSyncFile{w, gate} }
	l, _ := openOrDie(t, path, opts)

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if syncs >= n {
		t.Errorf("%d fsyncs for %d concurrent appends — batching is not happening", syncs, n)
	}
	if syncs > 2 {
		t.Errorf("%d fsyncs for %d appends that all wrote during the first; want at most 2", syncs, n)
	}
	// Nothing is outstanding, so Close has nothing to flush.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs > 2 {
		t.Errorf("Close fsynced a clean log (%d fsyncs)", syncs)
	}
	l2, records := openOrDie(t, path, testOpts())
	defer l2.Close()
	if len(records) != n {
		t.Fatalf("recovered %d of %d concurrent appends", len(records), n)
	}
}

// stampedSyncFile is the real file noting when each Sync was called.
type stampedSyncFile struct {
	syncWriter
	mu     *sync.Mutex
	starts *[]time.Time
}

func (s stampedSyncFile) Sync() error {
	s.mu.Lock()
	*s.starts = append(*s.starts, time.Now())
	s.mu.Unlock()
	return s.syncWriter.Sync()
}

// Back-to-back commits are paced by CommitWindow and a lone one is not: two
// appenders running flat out never get more than a window's fsync and its
// one follow-up started within a window, while an append that follows a
// quiet spell reaches the disk at once.
func TestCommitWindowPacesOnlyBackToBackCommits(t *testing.T) {
	var mu sync.Mutex
	var starts []time.Time
	opts := testOpts()
	opts.failpoint = func(w syncWriter) syncWriter { return stampedSyncFile{w, &mu, &starts} }
	l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog"), opts)
	defer l.Close()

	const appenders, each = 2, 40
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d-%d", a, i), uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	// The stamp is taken a lock acquisition after the window was measured,
	// so allow the gap to read a little short of it.
	const slack = CommitWindow / 4
	for i := 2; i < len(starts); i++ {
		if gap := starts[i].Sub(starts[i-2]); gap < CommitWindow-slack {
			t.Fatalf("fsyncs %d, %d and %d started within %v; the window is %v", i-2, i-1, i, gap, CommitWindow)
		}
	}
	if len(starts) > appenders*each {
		t.Fatalf("%d fsyncs for %d appends", len(starts), appenders*each)
	}

	// Lone appends, each a few windows after the last: the quickest of them
	// shows what the path costs when nothing else delays the goroutine.
	quickest := time.Hour
	for i := 0; i < 20; i++ {
		time.Sleep(3 * CommitWindow)
		called := time.Now()
		if err := l.Append(rec(TypeSubmitted, fmt.Sprintf("lone%d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
		if d := starts[len(starts)-1].Sub(called); d < quickest {
			quickest = d
		}
	}
	if quickest > CommitWindow/2 {
		t.Fatalf("a lone append waited %v before its fsync started; the window (%v) must not delay it", quickest, CommitWindow)
	}
}

// slowFirstSync is stampedSyncFile with a first fsync that takes most of a
// window, as the first fdatasync of a new file can.
type slowFirstSync struct{ stampedSyncFile }

func (s slowFirstSync) Sync() error {
	err := s.stampedSyncFile.Sync()
	s.mu.Lock()
	first := len(*s.starts) == 1
	s.mu.Unlock()
	if first {
		wallclock.Pause(CommitWindow * 3 / 4)
	}
	return err
}

// A slow fsync pushes its window's follow-up late in the window. The next
// window's first fsync waits out the window, and its follow-up must then
// wait until it is a window clear of the late one: no three fsyncs start
// within one window, however long an fsync takes.
func TestSlowFsyncDoesNotCrowdTheNextWindow(t *testing.T) {
	var mu sync.Mutex
	var starts []time.Time
	opts := testOpts()
	opts.failpoint = func(w syncWriter) syncWriter { return slowFirstSync{stampedSyncFile{w, &mu, &starts}} }
	l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog"), opts)
	defer l.Close()

	// The group commit's runners as the hand-offs of a busy log name them: a
	// window's first fsync (the slow one), its follow-up, the next window's
	// first, which a waiter was handed too, and that window's follow-up.
	for _, handed := range []bool{false, true, true, true} {
		l.flushBatch(handed)
	}
	const slack = CommitWindow / 4 // as in TestCommitWindowPacesOnlyBackToBackCommits
	for i := 2; i < len(starts); i++ {
		if gap := starts[i].Sub(starts[i-2]); gap < CommitWindow-slack {
			t.Errorf("fsyncs %d, %d and %d started within %v; the window is %v", i-2, i-1, i, gap, CommitWindow)
		}
	}
}

// A log without fsync has nothing to pace: a thousand serial appends must not
// cost a thousand windows.
func TestNoSyncSkipsTheCommitWindow(t *testing.T) {
	l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog"), Options{NoSync: true})
	defer l.Close()
	const n = 1000
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > n*CommitWindow/2 {
		t.Fatalf("%d NoSync appends took %v: they are being paced", n, d)
	}
}
