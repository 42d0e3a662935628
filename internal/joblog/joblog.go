// Package joblog is the gateway's write-ahead job log: the durability layer
// that makes an accepted submission survive a gateway crash.
//
// The log is one file of length-prefixed, CRC-framed records:
//
//	u32 length | u32 crc32c(body) | body
//
// where body is a Record in a small versioned binary layout (see body.go):
// a version byte, a type byte, then the fields as length-prefixed bytes,
// uvarints and float64s. Recovery reads it without parsing any JSON.
// Ids, keys, outcomes and each submitted graph's JSON are stored as plain
// bytes, so grep and strings still find a job in the file.
//
// The file is a checkpoint followed by a tail. The checkpoint is the fold of
// the history before it, one TypeFolded record per job, and the tail is the
// records appended since. The log compacts itself: once the tail outgrows
// both a fixed floor and the checkpoint, a goroutine of the Log folds the
// tail into the checkpoint it streams from the file and writes the result to
// <path>.compact, and then, between two group commits, copies what was
// appended meanwhile and renames the new file over the old one (see
// compact.go). So the file stays within a small multiple of what its jobs
// hold, and a restart folds one record per job plus a bounded tail.
//
// There are two ways to write, and they differ only in who waits:
//
//   - Append returns when its record is durable. The commit is
//     self-clocked (group commit with no timer in front of it): an appender
//     that finds no fsync running starts one at once; everyone who writes
//     while that fsync runs shares the next one. Batches therefore form
//     from real concurrency, and a lone appender pays one fdatasync and
//     nothing else. Only back-to-back commits are paced: an fsync on an
//     idle log starts no sooner than CommitWindow after the last such one
//     and covers everyone who wrote by then (see CommitWindow). So the
//     ack rate of a few clients submitting back to back is set by a clock,
//     not by how fast the host happens to run this minute.
//   - AppendNoWait returns when its records are written. They are made
//     durable by whatever flushes the file next: the group commit of a
//     later Append, a Sync, or Close. Both kinds are framed and written
//     under one lock, so file order is call order, and a failed write or
//     fsync poisons the log for both.
//
// Recovery (Open, Recover) streams the valid prefix of the file in bounded
// memory and is truncation-tolerant: a torn final record — the shape a
// crash mid-write leaves behind — is detected by its length/CRC frame and
// truncated away, never parsed. Corruption BEFORE the final record is
// refused loudly (ErrCorrupt): silent data loss in the middle of an
// acknowledged history must never look like a clean recovery.
//
// Decoding borrows: a record's strings and graph alias the chunk of the
// file it was read into, and nothing is allocated to decode it. Whoever
// keeps a record copies what it keeps before the chunk is reused: Open
// copies every record it returns, and Recover's fold copies only what the
// per-job state holds, so a restart costs per job, not per byte of history.
package joblog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/wallclock"
)

// frameHeader is the per-record frame: u32 little-endian body length plus
// u32 CRC-32C (Castagnoli) of the body.
const frameHeader = 8

// CommitWindow paces back-to-back commits. An fsync that starts on an idle
// log starts no sooner than CommitWindow after the last such fsync started
// and covers everyone who wrote by then; those who wrote while it ran get one
// follow-up fsync at once (after a slow fsync, no sooner than CommitWindow
// after the fsync two before it), and whoever comes after that waits for the
// next window. The first append after a quiet spell is never delayed. It is a
// property of the log, not a setting: at most two fsyncs start per window
// however the log is driven, a client that submits back to back is acked
// once per window (each further concurrent client adds its ack to the same
// fsyncs, so capacity is not capped), and the ack rate of a few such clients
// is set by a clock rather than by the speed of the host that minute. The
// value keeps the back-to-back ack under 2 ms and leaves a sequential
// client's round trip (about 1 ms with the fsync) enough slack to make
// every window. Logs opened with NoSync have no fsync to pace and skip it.
const CommitWindow = 1900 * time.Microsecond

// MaxRecord bounds one record's body. It matches the wire codec's MaxFrame
// order of magnitude: a record larger than this is a corrupt length field,
// not a legitimate job.
const MaxRecord = 4 << 20

// castagnoli is the CRC-32C table; the same polynomial storage systems use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports corruption strictly before the final record — history
// that was acknowledged durable and then damaged. Open refuses to treat it
// as a clean recovery.
var ErrCorrupt = errors.New("joblog: corrupt record before the log tail")

var errClosed = errors.New("joblog: log is closed")

// RecordType names the three events the gateway logs, and the two records a
// checkpoint is made of.
type RecordType string

// The record types, in the order a job's life emits them.
const (
	// TypeSubmitted is appended — and fsynced — BEFORE the client's
	// submission is acknowledged; it carries everything needed to replay
	// the job into the cluster.
	TypeSubmitted RecordType = "submitted"
	// TypeForwarded maps the gateway job id to the cluster job id the
	// backing node assigned; written after the cluster accepted the
	// submission.
	TypeForwarded RecordType = "forwarded"
	// TypeDecided closes the job: the cluster reached a guarantee
	// decision (or the job was written off).
	TypeDecided RecordType = "decided"

	// TypeCheckpoint opens a checkpoint, at the start of the file. Its Seq
	// is the NextSeq of the history the checkpoint replaced, and its At the
	// number of TypeFolded records that follow it, which Recover sizes its
	// tables by.
	TypeCheckpoint RecordType = "checkpoint"
	// TypeFolded is one job's folded state (a ReplayJob) in one record: the
	// fields of its submitted record, with Graph only while the job is still
	// queued, and the job's ClusterID, Outcome and DecisionLatency.
	TypeFolded RecordType = "folded"
)

// Record is one logged event. Fields are populated per type: Submitted
// fills Tenant/ClientKey/Deadline/Graph, Forwarded fills ClusterID,
// Decided fills Outcome and DecisionLatency, and a checkpoint's records
// fill what their type says.
type Record struct {
	Type RecordType `json:"type"`
	// ID is the gateway-assigned job id ("g17"), the key every later
	// record refers back to.
	ID string `json:"id"`
	// Seq is the numeric suffix of ID; recovery seeds the gateway's id
	// counter past the highest replayed Seq so restarts never reuse ids.
	Seq       uint64 `json:"seq,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	ClientKey string `json:"client_key,omitempty"`
	// At is the submission's virtual arrival time; Deadline is relative
	// to it. Both are replayed verbatim.
	At       float64 `json:"at,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	// Graph is the submitted DAG in the dag package's JSON schema,
	// verbatim — replay re-submits exactly what was acknowledged.
	Graph           json.RawMessage `json:"graph,omitempty"`
	ClusterID       string          `json:"cluster_id,omitempty"`
	Outcome         string          `json:"outcome,omitempty"`
	DecisionLatency float64         `json:"decision_latency,omitempty"`
}

// Options tunes durability and observes it.
type Options struct {
	// NoSync disables fsync entirely (tests and benchmarks on tmpfs where
	// durability is moot). Appends still go through the group commit so
	// the code path stays the same.
	NoSync bool
	// OnSync, when set, observes every fsync's wall-clock duration — the
	// gateway feeds its joblog fsync-latency histogram from it.
	OnSync func(d time.Duration)

	// failpoint, when set, wraps every file the log writes or syncs for
	// fault-injection tests: the log, a compaction's <path>.compact and the
	// directory the rename is made durable in. Write/sync errors and
	// crash-shaped torn writes are injected there. In-package tests only.
	failpoint func(w syncWriter) syncWriter
	// compactFloor, when set, replaces the constant of that name, so that
	// tests compact small logs. In-package tests only.
	compactFloor int64
}

// syncWriter is the slice of *os.File the log writes through; the
// failpoint writer wraps it to inject crashes at batch boundaries.
type syncWriter interface {
	io.Writer
	Sync() error
}

// commit is what a waiter of the group commit is told: the outcome of the
// fsync that covered its bytes, or — lead set — that the fsync running when
// it wrote has ended and the next one is its to run.
type commit struct {
	err  error
	lead bool
}

// Log is an open write-ahead job log. Safe for concurrent use.
type Log struct {
	opts Options
	path string

	mu      sync.Mutex
	f       *os.File   // swapped by a compaction, under mu and with no fsync running
	w       syncWriter // f, through the failpoint
	closed  bool
	pending []chan commit // waiters of the next fsync, in arrival order
	joined  []chan commit // waiters of the running fsync: Sync or Close with nothing new to flush
	syncing bool          // an fsync is running, or its successor has been named
	dirty   bool          // bytes were written since the last fsync started
	err     error         // sticky: a failed write or sync poisons the log

	// The file's layout and its compaction (compact.go).
	size       int64         // bytes in the file
	ckpt       checkpoint    // the checkpoint at its start
	compacting bool          // a compaction is running
	retryAt    int64         // after a failed compaction, the size before which none starts
	swapper    chan struct{} // a compaction waiting for the group commit to pause
	compactors sync.WaitGroup

	// started is when the last two fsyncs started, the latest first;
	// followUp whether the latest was its window's one follow-up. Only
	// whoever runs the group commit touches them, and leadership passes
	// under mu or over a waiter's channel, so they need no lock of their own.
	started  [2]time.Time
	followUp bool
}

// Append frames and writes one record and returns once it is durable: after
// an fsync that STARTED after the record's bytes were written. (The write
// and the enrolment among the next fsync's waiters happen under one lock,
// and whoever runs that fsync takes the waiters under the same lock before
// it calls Sync, so no fsync can answer a waiter whose bytes it did not
// cover.) An appender that finds no fsync running runs one at once — or,
// if the last such one started less than CommitWindow ago, when that window
// ends; one that finds one running waits for it to end and for the next,
// which the first of the waiters runs for all of them.
func (l *Log) Append(rec Record) error {
	buf, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	return l.write(buf, true)
}

// AppendNoWait frames and writes the records, in order and contiguously,
// and returns without waiting for them to be durable: the next group
// commit, Sync or Close makes them so. A crash before that loses them (and
// nothing written earlier). Use it for records whose loss recovery repairs.
func (l *Log) AppendNoWait(recs ...Record) error {
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	if len(buf) == 0 {
		return nil
	}
	return l.write(buf, false)
}

// Sync makes everything written so far durable. When nothing was written
// since the last fsync began it does not touch the disk: it returns at once,
// or when that fsync has ended if it is still running.
func (l *Log) Sync() error { return l.write(nil, true) }

// appendFrame appends rec's frame to buf.
func appendFrame(buf []byte, rec Record) ([]byte, error) {
	if typeByte(rec.Type) == 0 {
		return buf, fmt.Errorf("joblog: unknown record type %q", rec.Type)
	}
	if err := CheckSize(rec); err != nil {
		return buf, err
	}
	n := bodySize(rec)
	start := len(buf)
	buf = slices.Grow(buf, frameHeader+n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, 0, 0, 0, 0) // the CRC, once the body is there
	buf = appendBody(buf, rec)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+frameHeader:], castagnoli))
	return buf, nil
}

// write puts buf (whole frames, possibly none) at the end of the file and,
// when wait is set, returns only once an fsync that started afterwards has
// completed.
func (l *Log) write(buf []byte, wait bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	done, lead, err := l.writeLocked(buf, wait)
	l.mu.Unlock()
	if done == nil {
		return err
	}
	return l.await(done, lead)
}

// writeLocked is write's critical section. It returns a nil channel when
// there is nothing to wait for.
func (l *Log) writeLocked(buf []byte, wait bool) (done chan commit, lead bool, err error) {
	if l.err != nil {
		return nil, false, l.err
	}
	if len(buf) > 0 {
		if _, err := l.w.Write(buf); err != nil {
			l.err = err
			return nil, false, err
		}
		l.dirty = true
		l.size += int64(len(buf))
		l.maybeCompact()
	}
	if !wait || (!l.dirty && !l.syncing) {
		return nil, false, nil
	}
	done = make(chan commit, 1)
	if !l.dirty {
		// The fsync that is running started after the last byte was
		// written (every waiter of the next one has written since it
		// started), so it is the one to wait for: another would flush
		// nothing.
		l.joined = append(l.joined, done)
		return done, false, nil
	}
	l.pending = append(l.pending, done)
	lead = !l.syncing
	l.syncing = true
	return done, lead, nil
}

// await runs the group commit from one waiter's side.
func (l *Log) await(done chan commit, lead bool) error {
	handed := false
	for {
		if lead {
			l.flushBatch(handed) // answers done among the others
		}
		c := <-done
		if !c.lead {
			return c.err
		}
		lead, handed = true, true
	}
}

// flushBatch fsyncs the file once, answers every waiter that enrolled
// before the fsync started, and names the first waiter that enrolled during
// it to run the next one: each fsync is run by someone it is owed to, and
// nobody stays behind flushing for later arrivals. handed says the caller
// was so named, rather than having found the log idle.
func (l *Log) flushBatch(handed bool) {
	// Pace back-to-back commits before taking the batch, so that whoever
	// writes during the pause is covered by this fsync too. A window's first
	// fsync starts CommitWindow after the last window's first. Whoever wrote
	// while it ran missed it by less than one fsync: they get theirs on the
	// same window, as soon as it is CommitWindow clear of the fsync two
	// before it, which is at once unless a slow fsync pushed the last
	// window's follow-up late. So no three fsyncs start within one window.
	if !l.opts.NoSync {
		from := l.started[1]
		if !handed && !l.followUp {
			from = l.started[0]
		}
		l.followUp = handed && !l.followUp
		wallclock.Pause(CommitWindow - time.Since(from))
		l.started = [2]time.Time{time.Now(), l.started[0]}
	}
	l.mu.Lock()
	batch := l.pending
	l.pending = nil
	l.dirty = false
	err := l.err
	l.mu.Unlock()

	// A poisoned log is not synced again: after a failed fsync the kernel
	// may report the next one clean over pages it has dropped.
	if err == nil && !l.opts.NoSync {
		start := time.Now()
		err = l.w.Sync()
		if l.opts.OnSync != nil {
			l.opts.OnSync(time.Since(start))
		}
	}

	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	err = l.err
	batch = append(batch, l.joined...)
	l.joined = nil
	// A compaction waiting for the group commit to pause runs now, before
	// the next fsync is named: it hands the lead on when it is done.
	swapper := l.swapper
	l.swapper = nil
	var next chan commit
	if swapper == nil {
		next = l.nextLocked()
	}
	l.mu.Unlock()
	for _, ch := range batch {
		ch <- commit{err: err}
	}
	if swapper != nil {
		close(swapper)
	}
	if next != nil {
		next <- commit{lead: true}
	}
}

// nextLocked names whoever runs the next fsync: the first waiter of it,
// which stays enrolled for its own fsync to answer. With nobody waiting, the
// group commit stops.
func (l *Log) nextLocked() chan commit {
	if len(l.pending) > 0 {
		return l.pending[0]
	}
	l.syncing = false
	return nil
}

// Close makes everything written durable, records of both kinds, and
// closes the file. Further writes fail. On a poisoned log it returns the
// error that poisoned it.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// Whoever wrote before this point is enrolled before Close is, so when
	// Close is answered nobody is left to touch the file.
	done, lead, err := l.writeLocked(nil, true)
	l.mu.Unlock()
	if done != nil {
		err = l.await(done, lead)
	}
	// A running compaction ends, swapped in or removed, before the file is
	// closed: nothing is left beside the log.
	l.compactors.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		err = l.err
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
