package joblog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
)

// Open replays the log at path (creating it if absent), truncates a torn
// tail, and returns the log opened for append plus the replayed records in
// order. Corruption before the tail returns ErrCorrupt. Open holds every
// record of the history at once; a caller that wants the per-job state
// should use Recover, which does not.
func Open(path string, opts Options) (*Log, []Record, error) {
	var records []Record
	l, err := open(path, opts, func(rec Record) { records = append(records, rec) })
	if err != nil {
		return nil, nil, err
	}
	return l, records, nil
}

// Recover is Open folded into a Replay as the records stream past: what it
// holds at any moment is the per-job state so far plus a bounded number of
// chunks of the file, never the file or the record list.
func Recover(path string, opts Options) (*Log, *Replay, error) {
	rep := newReplay()
	l, err := open(path, opts, rep.add)
	if err != nil {
		return nil, nil, err
	}
	return l, rep, nil
}

func open(path string, opts Options, fold func(Record)) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	valid, err := replay(f, chunkBytes, fold)
	// Truncate the torn tail (no-op when the file ends cleanly), then seek
	// to the end for appends.
	if err == nil {
		err = f.Truncate(valid)
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{opts: opts, f: f, w: f}
	if opts.failpoint != nil {
		l.w = opts.failpoint(f)
	}
	return l, nil
}

const (
	// chunkBytes is how much of the file one decode task covers (one frame
	// more when the last does not fit; a single record can be MaxRecord).
	chunkBytes = 128 << 10
	// readBufferBytes is the reader's buffer in front of the file.
	readBufferBytes = 256 << 10
)

// chunk is a run of consecutive frames cut off the file, decoded as one
// task. Chunks are recycled, so recovery's transient memory is the chunks
// in flight, whatever the size of the file.
type chunk struct {
	start  int64   // file offset of the first frame
	bodies []byte  // the frames' bodies, back to back
	frames []frame // where each body ends, and the CRC its header claims
	done   chan struct{}

	// Set by decode: the records of the frames before the first bad one.
	recs []Record
	err  error // a body behind a good CRC did not decode (ErrCorrupt)
}

type frame struct {
	end int // body is bodies[previous end:end]
	crc uint32
}

// offset is the file offset of frame i (of the end of the chunk when i is
// len(frames)).
func (c *chunk) offset(i int) int64 {
	bodyBytes := 0
	if i > 0 {
		bodyBytes = c.frames[i-1].end
	}
	return c.start + int64(i*frameHeader+bodyBytes)
}

// fill cuts frames off r until the chunk holds size bytes or the
// structurally valid prefix ends: at the end of the file, at a header or
// body the file is too short for, or at a length no record can have. more is
// false in those cases; err is an I/O error only.
func (c *chunk) fill(r *bufio.Reader, start int64, size int) (more bool, err error) {
	c.start, c.bodies, c.frames, c.recs, c.err = start, c.bodies[:0], c.frames[:0], c.recs[:0], nil
	for len(c.bodies) < size {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return false, endOfPrefix(err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:]))
		if n == 0 || n > MaxRecord {
			return false, nil
		}
		from := len(c.bodies)
		if need := from + n; need > cap(c.bodies) {
			grown := make([]byte, from, max(need, size+size/2))
			copy(grown, c.bodies)
			c.bodies = grown
		}
		c.bodies = c.bodies[:from+n]
		if _, err := io.ReadFull(r, c.bodies[from:]); err != nil {
			c.bodies = c.bodies[:from]
			return false, endOfPrefix(err)
		}
		c.frames = append(c.frames, frame{end: from + n, crc: binary.LittleEndian.Uint32(hdr[4:])})
	}
	return true, nil
}

// endOfPrefix maps a short read to "the prefix ends here" and keeps
// everything else an error.
func endOfPrefix(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// decode checks each frame's CRC and decodes its body, stopping at the first
// frame that fails either.
func (c *chunk) decode() {
	from := 0
	for i, fr := range c.frames {
		body := c.bodies[from:fr.end]
		if crc32.Checksum(body, castagnoli) != fr.crc {
			return
		}
		// A zero Record each time: decodeBody writes only the fields the
		// body holds, and a recycled one would keep an earlier record's.
		c.recs = append(c.recs, Record{})
		if err := decodeBody(body, &c.recs[i]); err != nil {
			// The CRC matched but the body is not a record: that is not a
			// torn write, it is corruption (or a foreign file).
			c.recs = c.recs[:i]
			c.err = fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, c.offset(i), err)
			return
		}
		from = fr.end
	}
}

// replay streams f's valid record prefix through fold, in file order and on
// the calling goroutine, and returns the byte offset where validity ends. A
// bad frame at the tail (torn write) is fine — recovery truncates it; a bad
// frame followed by a GOOD frame means mid-file corruption and returns
// ErrCorrupt, as does a body that passes its CRC and is not a record.
//
// The caller cuts the file into chunks of chunkSize bytes and folds them;
// GOMAXPROCS workers check and decode them in between. At most maxInFlight
// chunks exist, so memory does not grow with the file.
func replay(f *os.File, chunkSize int, fold func(Record)) (valid int64, err error) {
	workers := runtime.GOMAXPROCS(0)
	maxInFlight := 2 * workers
	work := make(chan *chunk, maxInFlight) // every chunk in flight fits: the reader never blocks on a send
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(work)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				c.decode()
				c.done <- struct{}{}
			}
		}()
	}

	r := bufio.NewReaderSize(f, readBufferBytes)
	var inFlight, free []*chunk
	end := int64(0) // where the reader stands
	for more := true; more || len(inFlight) > 0; {
		if more && len(inFlight) < maxInFlight {
			var c *chunk
			if n := len(free); n > 0 {
				c, free = free[n-1], free[:n-1]
			} else {
				c = &chunk{done: make(chan struct{}, 1)}
			}
			if more, err = c.fill(r, end, chunkSize); err != nil {
				break
			}
			end = c.offset(len(c.frames))
			if len(c.frames) > 0 {
				work <- c
				inFlight = append(inFlight, c)
			}
			continue
		}
		c := inFlight[0]
		inFlight = inFlight[1:]
		<-c.done
		for _, rec := range c.recs {
			fold(rec)
		}
		if c.err != nil {
			err = c.err
			break
		}
		if bad := len(c.recs); bad < len(c.frames) {
			// The prefix ends inside this chunk; what was cut after it was
			// cut along lengths that may be garbage.
			end = c.offset(bad)
			break
		}
		free = append(free, c)
	}
	if err != nil {
		return 0, err
	}
	return end, probeTail(f, end)
}

// probeTail decides what the bytes after the valid prefix are. Anything
// there must be a torn tail: if a whole valid frame exists further on, the
// damage is in the middle. This is the one place recovery reads the
// remainder of the file at once, and only when there is a remainder.
func probeTail(f *os.File, valid int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() <= valid {
		return nil
	}
	rest, err := io.ReadAll(io.NewSectionReader(f, valid, st.Size()-valid))
	if err != nil {
		return err
	}
	for probe := int64(1); probe+frameHeader <= int64(len(rest)); probe++ {
		if _, _, ok := frameAt(rest, probe); ok {
			return fmt.Errorf("%w: valid frame after damage at offset %d", ErrCorrupt, valid)
		}
	}
	return nil
}

// frameAt decodes the frame starting at offset; ok is false when the frame
// is incomplete or fails its CRC.
func frameAt(data []byte, offset int64) (body []byte, next int64, ok bool) {
	if int64(len(data))-offset < frameHeader {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[offset:])
	crc := binary.LittleEndian.Uint32(data[offset+4:])
	if n == 0 || n > MaxRecord || offset+frameHeader+int64(n) > int64(len(data)) {
		return nil, 0, false
	}
	body = data[offset+frameHeader : offset+frameHeader+int64(n)]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, 0, false
	}
	return body, offset + frameHeader + int64(n), true
}

// Replay summarizes a recovered record stream into per-job state: the
// latest known stage of every gateway job id, in first-submission order.
type Replay struct {
	// Jobs holds one entry per submitted gateway job id.
	Jobs []*ReplayJob
	// NextSeq is one past the highest Seq seen; the gateway's id counter
	// resumes here.
	NextSeq uint64
	byID    map[string]*ReplayJob
}

// ReplayJob is one job's recovered state.
type ReplayJob struct {
	// Submitted is the job's submitted record. Its Graph is kept only while
	// the job may still have to be re-submitted: it is dropped when the
	// job's forwarded or decided record is folded in.
	Submitted Record
	// ClusterID is set when a forwarded record was recovered: the job
	// reached the cluster under this id before the crash.
	ClusterID string
	// Outcome is set when a decided record was recovered; such jobs are
	// closed and need no replay.
	Outcome string
}

// Undecided reports whether the job still needs driving: submitted (and
// possibly forwarded) but never decided.
func (j *ReplayJob) Undecided() bool { return j.Outcome == "" }

// Summarize folds a recovered record stream into per-job replay state.
// Folding is idempotent by construction: duplicate records of any type
// collapse onto the same job entry, so replaying a log twice (or a log
// that was itself produced by a replay) yields identical state — the
// duplicate-replay test pins this. A job's forwarded and decided records
// fold in either order: a decision can reach the log before the forward
// that it overtook.
func Summarize(records []Record) *Replay {
	r := newReplay()
	for _, rec := range records {
		r.add(rec)
	}
	return r
}

func newReplay() *Replay { return &Replay{byID: make(map[string]*ReplayJob)} }

// add folds one record in.
func (r *Replay) add(rec Record) {
	if rec.Seq >= r.NextSeq {
		r.NextSeq = rec.Seq + 1
	}
	switch rec.Type {
	case TypeSubmitted:
		if _, dup := r.byID[rec.ID]; dup {
			return // idempotent: same id resubmitted by a replayed log
		}
		j := &ReplayJob{Submitted: rec}
		r.byID[rec.ID] = j
		r.Jobs = append(r.Jobs, j)
	case TypeForwarded:
		if j := r.byID[rec.ID]; j != nil {
			j.Submitted.Graph = nil
			if j.ClusterID == "" {
				j.ClusterID = rec.ClusterID
			}
		}
	case TypeDecided:
		if j := r.byID[rec.ID]; j != nil {
			j.Submitted.Graph = nil
			if j.Outcome == "" {
				j.Outcome = rec.Outcome
			}
		}
	}
}
