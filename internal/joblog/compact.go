package joblog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// compactFloor is the least tail a compaction folds: the log compacts once
// the records since its checkpoint outgrow both this and the checkpoint.
// A compaction writes the checkpoint and the tail's jobs, less than twice
// the tail it consumes, so it costs O(1) per appended byte, and the file
// stays under twice its checkpoint plus the floor. A restart replays a tail
// this size in a few milliseconds.
const compactFloor = 4 << 20

// compactSuffix names the file a compaction writes beside the log until it
// renames it over the log. Open removes one that a crash left behind.
const compactSuffix = ".compact"

// wrap is f as the log writes it: through the failpoint, if there is one.
func (o Options) wrap(f *os.File) syncWriter {
	if o.failpoint != nil {
		return o.failpoint(f)
	}
	return f
}

// floor is the compaction floor in force.
func (o Options) floor() int64 {
	if o.compactFloor > 0 {
		return o.compactFloor
	}
	return compactFloor
}

// maybeCompact starts a compaction when the tail has outgrown the floor and
// the checkpoint. Callers hold l.mu.
func (l *Log) maybeCompact() {
	tail := l.size - l.ckpt.end
	if l.compacting || l.size < l.retryAt || tail <= max(l.opts.floor(), l.ckpt.end) {
		return
	}
	l.startCompaction()
}

// startCompaction compacts everything written so far, in a goroutine of the
// log. Callers hold l.mu.
func (l *Log) startCompaction() {
	l.compacting = true
	l.compactors.Add(1)
	go l.compact(l.f, l.ckpt, l.size)
}

// rewrite is a compaction's new file: a checkpoint, then the old file's
// bytes from the checkpoint's cut on.
type rewrite struct {
	f      *os.File
	w      syncWriter // f, through the failpoint
	ckpt   checkpoint
	copied int64 // the old file's bytes up to here are in the new one
	size   int64 // the new file's bytes
}

// compact rewrites the log as one checkpoint of the old file's first upTo
// bytes (the checkpoint ckpt and the tail after it) followed by what is
// appended from there on, and makes the result the log. When it fails
// before the rename, the log is as it was and the next attempt waits for
// another floor of tail.
func (l *Log) compact(old *os.File, ckpt checkpoint, upTo int64) {
	defer l.compactors.Done()
	f, err := os.OpenFile(l.path+compactSuffix, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		rw := &rewrite{f: f, w: l.opts.wrap(f), copied: upTo}
		swapped := false
		if err = l.writeCheckpoint(rw, old, ckpt, upTo); err == nil {
			swapped, err = l.swap(rw, old)
		}
		if !swapped {
			f.Close()
			os.Remove(f.Name())
		}
	}
	l.mu.Lock()
	l.compacting = false
	if err != nil {
		l.retryAt = l.size + l.opts.floor()
	}
	l.mu.Unlock()
}

// writeCheckpoint writes the checkpoint of the old file's first upTo bytes
// to rw and makes it durable. It folds the tail after the old checkpoint,
// then streams the old checkpoint's jobs through it, each updated by what
// the tail did to it, and then appends the jobs the tail submitted. What it
// holds at once is the tail's state, never every job's.
func (l *Log) writeCheckpoint(rw *rewrite, old *os.File, ckpt checkpoint, upTo int64) error {
	tail := newReplay()
	updates := make(map[string]*pending)
	err := replayRange(old, ckpt.end, upTo, func(recs []Record) {
		for i := range recs {
			if rec := &recs[i]; rec.Type == TypeForwarded || rec.Type == TypeDecided {
				p := updates[rec.ID]
				if p == nil {
					p = new(pending)
					updates[strings.Clone(rec.ID)] = p
				}
				p.add(rec, tail)
			}
		}
		tail.fold(recs)
	})
	if err != nil {
		return err
	}

	w := bufio.NewWriterSize(rw.w, chunkBytes)
	var frame []byte
	put := func(rec Record) error {
		var err error
		if frame, err = appendFrame(frame[:0], rec); err == nil {
			_, err = w.Write(frame)
			rw.size += int64(len(frame))
		}
		return err
	}
	rw.ckpt.next = max(ckpt.next, tail.NextSeq)
	// At most this many jobs: a job the tail submitted again is the
	// checkpoint's, and is written once.
	if err := put(Record{Type: TypeCheckpoint, Seq: rw.ckpt.next, At: float64(ckpt.jobs + len(tail.Jobs))}); err != nil {
		return err
	}
	var werr error
	err = replayRange(old, 0, ckpt.end, func(recs []Record) {
		for _, rec := range recs {
			if rec.Type != TypeFolded || werr != nil {
				continue // the old header
			}
			if p := updates[rec.ID]; p != nil {
				p.apply(&rec)
			}
			delete(tail.byID, rec.ID) // submitted again in the tail: a duplicate
			werr = put(rec)
			rw.ckpt.jobs++
		}
	})
	if err == nil {
		err = werr
	}
	for _, j := range tail.Jobs {
		if err != nil {
			break
		}
		if tail.byID[j.Submitted.ID] == j {
			err = put(j.folded())
			rw.ckpt.jobs++
		}
	}
	if err == nil {
		err = w.Flush()
	}
	rw.ckpt.end = rw.size
	if err != nil || l.opts.NoSync {
		return err
	}
	return rw.w.Sync()
}

// replayRange replays the old file's bytes [from, to), which the log wrote
// whole.
func replayRange(f *os.File, from, to int64, fold func([]Record)) error {
	valid, _, err := stream(io.NewSectionReader(f, from, to-from), chunkBytes, fold)
	if err == nil && valid != to-from {
		err = fmt.Errorf("%w: the log does not read back whole between offsets %d and %d", ErrCorrupt, from, to)
	}
	return err
}

// pending is what a tail's forwarded and decided records do to a job of the
// checkpoint: they are folded into a job of their own, whose first cluster
// id and outcome are the ones that stick to the checkpoint's job.
type pending struct {
	ReplayJob
	decided bool // an outcome, even an empty one, was folded in
}

func (p *pending) add(rec *Record, r *Replay) {
	p.update(rec, r)
	p.decided = p.decided || rec.Type == TypeDecided
}

// apply folds the records into rec, a folded job.
func (p *pending) apply(rec *Record) {
	rec.Graph = nil
	if rec.ClusterID == "" {
		rec.ClusterID = p.ClusterID
	}
	if p.decided && rec.Outcome == "" {
		rec.Outcome, rec.DecisionLatency = p.Outcome, p.DecisionLatency
	}
}

// swap makes the new file the log. It copies what was appended since the
// cut without the lock; then, holding the lock and between two group
// commits, it copies the rest, makes it durable, renames the file over the
// log, makes the rename durable and swaps the descriptor. It reports
// whether the new file is the log now.
func (l *Log) swap(rw *rewrite, old *os.File) (bool, error) {
	l.mu.Lock()
	end := l.size
	l.mu.Unlock()
	if err := rw.copyFrom(old, end); err != nil {
		return false, err
	}

	l.mu.Lock()
	if l.syncing {
		// The group commit hands over when its fsync ends (flushBatch).
		paused := make(chan struct{})
		l.swapper = paused
		l.mu.Unlock()
		<-paused
		l.mu.Lock()
	}
	l.syncing = true
	swapped, err := l.swapLocked(rw, old)
	// Nothing was flushed while the group commit paused: a Sync that
	// joined meanwhile had nothing to wait for, and the first waiter of the
	// next fsync runs it.
	joined := l.joined
	l.joined = nil
	next := l.nextLocked()
	logErr := l.err
	l.mu.Unlock()
	for _, ch := range joined {
		ch <- commit{err: logErr}
	}
	if next != nil {
		next <- commit{lead: true}
	}
	return swapped, err
}

// swapLocked is swap's critical section.
func (l *Log) swapLocked(rw *rewrite, old *os.File) (bool, error) {
	if l.err != nil {
		return false, l.err
	}
	if err := rw.copyFrom(old, l.size); err != nil {
		return false, err
	}
	if !l.opts.NoSync {
		if err := rw.w.Sync(); err != nil {
			return false, err
		}
	}
	if err := os.Rename(rw.f.Name(), l.path); err != nil {
		return false, err
	}
	// The new file is the log from here on. If the rename cannot be made
	// durable, a crash may bring the old file back, so nothing more may be
	// acknowledged: the log is poisoned.
	err := l.syncDir()
	old.Close() // renamed over and copied whole: nothing reads it again
	l.f, l.w, l.size, l.ckpt = rw.f, rw.w, rw.size, rw.ckpt
	if err != nil {
		l.err = err
	}
	return true, err
}

// copyFrom appends the old file's bytes from rw.copied up to end.
func (rw *rewrite) copyFrom(old *os.File, end int64) error {
	n, err := io.Copy(rw.w, io.NewSectionReader(old, rw.copied, end-rw.copied))
	rw.copied += n
	rw.size += n
	return err
}

// syncDir fsyncs the directory of the log, which makes a rename durable.
func (l *Log) syncDir() error {
	if l.opts.NoSync {
		return nil
	}
	d, err := os.Open(filepath.Dir(l.path))
	if err != nil {
		return err
	}
	err = l.opts.wrap(d).Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
