package joblog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Open replays the log at path (creating it if absent), truncates a torn
// tail, and returns the log opened for append plus the replayed records in
// order, each a copy the caller owns. The records of a compacted log start
// with its checkpoint's, which Summarize folds to the state the records
// they replaced gave. Corruption before the tail returns ErrCorrupt. Open
// holds every record of the log at once; a caller that wants the per-job
// state should use Recover, which does not.
func Open(path string, opts Options) (*Log, []Record, error) {
	var records []Record
	l, err := open(path, opts, func(recs []Record) {
		for _, rec := range recs {
			records = append(records, rec.clone())
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return l, records, nil
}

// Recover is Open folded into a Replay as the records stream past: what it
// holds at any moment is the per-job state so far plus a bounded number of
// chunks of the file, never the file or the record list.
//
// Its records are never copied whole. They are decoded in place, their
// strings and graphs borrowed from the chunk they were read into, and the
// fold copies only what the Replay keeps: a job's id, client key and
// cluster id, its tenant and outcome once per distinct value, and a
// submitted graph only if the job is still queued when its chunk is done.
// A checkpoint's folded records go through the same fold, into tables sized
// by the checkpoint's job count; the client-key index is made last, at the
// number of jobs folded.
func Recover(path string, opts Options) (*Log, *Replay, error) {
	rep := newReplay()
	if st, err := os.Stat(path); err == nil {
		rep.limit = int(st.Size() / minFrame)
	}
	l, err := open(path, opts, rep.fold)
	if err != nil {
		return nil, nil, err
	}
	rep.indexKeys()
	return l, rep, nil
}

// open removes what a compaction cut short left beside the log, replays the
// log through fold and opens it for append.
func open(path string, opts Options, fold func([]Record)) (*Log, error) {
	path = filepath.Clean(path)
	if err := os.Remove(path + compactSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	valid, ckpt, err := replay(f, chunkBytes, fold)
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
	return &Log{opts: opts, path: path, f: f, w: opts.wrap(f), size: valid, ckpt: ckpt}, nil
}

// chunkBytes is how much of the file one decode task reads (more when a
// single frame does not fit: a record can be MaxRecord).
const chunkBytes = 128 << 10

// chunk is a run of consecutive frames read off the file, decoded as one
// task. Chunks are recycled, so recovery's transient memory is the chunks
// in flight, whatever the size of the file.
type chunk struct {
	start  int64   // file offset of buf[0]
	buf    []byte  // whole frames, header and body, as the file holds them
	frames []frame // where each frame ends in buf, and the CRC its header claims
	done   chan struct{}

	// Set by decode: the records of the frames before the first bad one,
	// borrowing from buf.
	recs []Record
	err  error // a body behind a good CRC did not decode (ErrCorrupt)
}

type frame struct {
	end int // the frame is buf[previous end:end]
	crc uint32
}

// offset is the file offset of frame i (of the end of the chunk when i is
// len(frames)).
func (c *chunk) offset(i int) int64 {
	if i == 0 {
		return c.start
	}
	return c.start + int64(c.frames[i-1].end)
}

// fill reads frames into the chunk, starting with carry, the part of the
// next frame its predecessor read, until the buffer holds no further whole
// frame or the structurally valid prefix ends: at the end of the file, at a
// frame the file is too short for, or at a length no record can have. It
// returns the bytes read past its last frame, which the next chunk starts
// with; more is false when the prefix ended. err is an I/O error only.
func (c *chunk) fill(f io.Reader, carry []byte, start int64, size int) (rest []byte, more bool, err error) {
	c.start, c.frames, c.recs, c.err = start, c.frames[:0], c.recs[:0], nil
	if cap(c.buf) < size {
		c.buf = make([]byte, 0, size)
	}
	c.buf = append(c.buf[:0], carry...)
	for end := 0; ; {
		next := end + frameHeader // where the frame at end ends, once its length is read
		if len(c.buf) >= next {
			n := int(binary.LittleEndian.Uint32(c.buf[end:]))
			if n == 0 || n > MaxRecord {
				return nil, false, nil
			}
			if next += n; len(c.buf) >= next {
				c.frames = append(c.frames, frame{end: next, crc: binary.LittleEndian.Uint32(c.buf[end+4:])})
				end = next
				continue
			}
		}
		// The frame at end is not all read. If it cannot fit behind the
		// frames before it, it starts the next chunk; a frame larger than
		// the buffer grows it.
		if next > cap(c.buf) {
			if end > 0 {
				return c.buf[end:], true, nil
			}
			c.buf = slices.Grow(c.buf, next-len(c.buf))
		}
		m, err := io.ReadAtLeast(f, c.buf[len(c.buf):cap(c.buf)], next-len(c.buf))
		c.buf = c.buf[:len(c.buf)+m]
		if err != nil {
			return nil, false, endOfPrefix(err)
		}
	}
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
	c.recs = slices.Grow(c.recs, len(c.frames))
	from := 0
	for i, fr := range c.frames {
		body := c.buf[from+frameHeader : fr.end]
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

// replay streams f's valid record prefix through fold and returns the byte
// offset where validity ends and the checkpoint the prefix starts with. A
// bad frame at the tail (torn write) is fine — recovery truncates it; a bad
// frame followed by a GOOD frame means mid-file corruption and returns
// ErrCorrupt, as does a body that passes its CRC and is not a record.
func replay(f *os.File, chunkSize int, fold func([]Record)) (int64, checkpoint, error) {
	valid, ckpt, err := stream(f, chunkSize, fold)
	if err == nil {
		err = probeTail(f, valid)
	}
	return valid, ckpt, err
}

// stream folds r's valid record prefix, in file order and on the calling
// goroutine, and returns where it ends and the checkpoint it starts with. A
// body that passes its CRC and is not a record is corruption (ErrCorrupt);
// what the bytes after the prefix are is not stream's to say.
//
// The caller cuts the file into chunks of chunkSize bytes and folds them;
// GOMAXPROCS workers check and decode them in between. At most maxInFlight
// chunks exist, so memory does not grow with the file. fold is handed one
// chunk's records at a time; they borrow from the chunk, which is reused
// once fold returns.
func stream(r io.Reader, chunkSize int, fold func([]Record)) (valid int64, ckpt checkpoint, err error) {
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

	var inFlight, free []*chunk
	var carry []byte // read past the last frame cut
	end := int64(0)  // where the frames cut so far end
	inCkpt := true   // every record so far is the checkpoint's
	for more := true; more || len(inFlight) > 0; {
		if more && len(inFlight) < maxInFlight {
			var c *chunk
			if n := len(free); n > 0 {
				c, free = free[n-1], free[:n-1]
			} else {
				c = &chunk{done: make(chan struct{}, 1)}
			}
			if carry, more, err = c.fill(r, carry, end, chunkSize); err != nil {
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
		for i := 0; inCkpt && i < len(c.recs); i++ {
			inCkpt = ckpt.extend(&c.recs[i], c.offset(i+1))
		}
		fold(c.recs)
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
		return 0, checkpoint{}, err
	}
	return end, ckpt, nil
}

// checkpoint is where a log's checkpoint ends and what it holds. A
// checkpoint is a TypeCheckpoint record at the start of the file and the
// run of TypeFolded records after it whose Seqs it accounts for: folding it
// leaves NextSeq at the header's Seq.
type checkpoint struct {
	end  int64  // the checkpoint is the file's bytes [0, end); 0 when there is none
	next uint64 // the header's Seq: the NextSeq of the history it replaced
	jobs int    // the folded records after the header
}

// extend grows the checkpoint over rec, the record that ends at end, and
// reports whether rec belongs to it.
func (ck *checkpoint) extend(rec *Record, end int64) bool {
	switch {
	case ck.end == 0 && rec.Type == TypeCheckpoint:
		ck.next = rec.Seq
	case ck.end > 0 && rec.Type == TypeFolded && nextAfter(rec.Seq) <= ck.next:
		ck.jobs++
	default:
		return false
	}
	ck.end = end
	return true
}

// probeStep is how far probeTail's window moves: each window holds probeStep
// bytes of positions to probe plus the largest frame that can start at one.
const probeStep = 1 << 20

// probeTail decides what the bytes after the valid prefix are. Anything
// there must be a torn tail: if a whole valid frame exists further on, the
// damage is in the middle. It reads the remainder a window at a time, the
// windows overlapping by the largest frame, so that a frame across a
// window's end is whole in the next one: what a crash leaves behind the
// prefix may be any size.
func probeTail(f *os.File, valid int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() <= valid {
		return nil
	}
	const overlap = frameHeader + MaxRecord
	buf := make([]byte, min(st.Size()-valid, probeStep+overlap))
	for from := valid; from < st.Size(); from += probeStep {
		n, err := f.ReadAt(buf, from)
		if err != nil && err != io.EOF {
			return err
		}
		window, last := buf[:n], from+int64(n) >= st.Size()
		// The frame at valid is the damaged one itself: probing starts after it.
		for probe := max(valid+1-from, 0); probe+frameHeader <= int64(n) && (last || probe < probeStep); probe++ {
			if _, _, ok := frameAt(window, probe); ok {
				return fmt.Errorf("%w: valid frame after damage at offset %d", ErrCorrupt, valid)
			}
		}
		if last {
			break
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

// Replay summarizes a record stream into per-job state: the latest known
// stage of every gateway job id, in first-submission order. The gateway
// keeps it as its job table and folds each record it appends in (Add).
type Replay struct {
	// Jobs holds one entry per submitted gateway job id.
	Jobs []*ReplayJob
	// NextSeq is one past the highest Seq seen; the gateway's id counter
	// resumes here.
	NextSeq uint64
	byID    map[string]*ReplayJob
	// byKey and otherKeys find a job by its submission's client key: byKey
	// for the first tenant that named the key, otherKeys for any other (a
	// key submitted again names the later job). See indexKeys.
	byKey     map[string]*ReplayJob
	otherKeys map[tenantKey]*ReplayJob
	// names interns tenants and outcomes, which take few distinct values.
	names map[string]string
	// limit caps how many jobs a checkpoint header may size the tables for:
	// no more than the records there can be.
	limit int
	// free is the rest of the block the next jobs are carved from: jobs
	// live as long as their Replay, so they come jobBlock at a time.
	free []ReplayJob
}

// tenantKey is a (tenant, client key) pair.
type tenantKey struct{ tenant, key string }

// jobBlock is how many jobs a Replay allocates at once.
const jobBlock = 256

// ReplayJob is one job's recovered state.
type ReplayJob struct {
	// Submitted is the job's submitted record: its type, id, Seq, tenant,
	// client key, arrival and deadline, and its graph. The graph is kept only
	// while the job may still have to be re-submitted: it is dropped when the
	// job's forwarded or decided record is folded in.
	Submitted Record
	// ClusterID is set when a forwarded or decided record was recovered:
	// the job reached the cluster under this id before the crash.
	ClusterID string
	// Outcome and DecisionLatency are set when a decided record was
	// recovered; such jobs are closed and need no replay.
	Outcome         string
	DecisionLatency float64
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
	r.limit = len(records)
	r.fold(records)
	r.indexKeys()
	return r
}

func newReplay() *Replay {
	return &Replay{byID: make(map[string]*ReplayJob), names: make(map[string]string)}
}

// Job is the job with gateway id id, nil if none.
func (r *Replay) Job(id string) *ReplayJob { return r.byID[id] }

// Keyed is the job tenant submitted under client key key, nil if none.
func (r *Replay) Keyed(tenant, key string) *ReplayJob {
	if j := r.byKey[key]; j != nil && j.Submitted.Tenant == tenant {
		return j
	}
	return r.otherKeys[tenantKey{tenant, key}]
}

// indexKeys indexes the jobs folded so far by client key, in a map made at
// their number: grown as the fold went, it would allocate about twice as
// much. Jobs added later are indexed as they are added.
func (r *Replay) indexKeys() {
	r.byKey = make(map[string]*ReplayJob, len(r.Jobs))
	r.otherKeys = make(map[tenantKey]*ReplayJob)
	for _, j := range r.Jobs {
		r.index(j)
	}
}

// index makes j the job its client key names, once there is an index.
func (r *Replay) index(j *ReplayJob) {
	tenant, key := j.Submitted.Tenant, j.Submitted.ClientKey
	if r.byKey == nil || key == "" {
		return
	}
	if first := r.byKey[key]; first == nil || first.Submitted.Tenant == tenant {
		r.byKey[key] = j
	} else {
		r.otherKeys[tenantKey{tenant, key}] = j
	}
}

// fold folds a run of records in, in order. Their strings and graphs may
// borrow from a buffer that is reused once fold returns, so what the Replay
// keeps is copied: strings as they are folded in, and the graphs of the
// jobs the run submitted at its end, when only those still queued need one.
func (r *Replay) fold(recs []Record) {
	submitted := len(r.Jobs)
	for i := range recs {
		r.Add(&recs[i])
	}
	for _, j := range r.Jobs[submitted:] {
		j.Submitted.Graph = bytes.Clone(j.Submitted.Graph) // nil once forwarded or decided
	}
}

// Add folds one record in and returns the job it is about, nil when it is
// about none. Its strings are copied; a submitted record's graph is kept as
// it is, so the caller hands it over (fold copies it).
func (r *Replay) Add(rec *Record) *ReplayJob {
	next := nextAfter(rec.Seq)
	j := r.byID[rec.ID]
	switch rec.Type {
	case TypeCheckpoint:
		next = rec.Seq // the NextSeq of the history it replaced
		r.reserve(rec.At)
		j = nil
	case TypeSubmitted, TypeFolded:
		if j == nil { // else idempotent: same id resubmitted by a replayed log
			j = r.addJob(rec)
		}
	case TypeForwarded, TypeDecided:
		if j != nil {
			j.update(rec, r)
		}
	}
	r.NextSeq = max(r.NextSeq, next)
	return j
}

// addJob adds the job a submitted or folded record brings.
func (r *Replay) addJob(rec *Record) *ReplayJob {
	if len(r.free) == 0 {
		r.free = make([]ReplayJob, jobBlock)
	}
	j := &r.free[0]
	r.free = r.free[1:]
	j.Submitted = Record{Type: TypeSubmitted, ID: strings.Clone(rec.ID), Seq: rec.Seq,
		Tenant: r.intern(rec.Tenant), ClientKey: strings.Clone(rec.ClientKey),
		At: rec.At, Deadline: rec.Deadline, Graph: rec.Graph}
	if rec.Type == TypeFolded {
		j.ClusterID = strings.Clone(rec.ClusterID)
		j.Outcome = r.intern(rec.Outcome)
		j.DecisionLatency = rec.DecisionLatency
	}
	r.byID[j.Submitted.ID] = j
	r.index(j)
	r.Jobs = append(r.Jobs, j)
	return j
}

// update folds a forwarded or decided record into the job: the first
// cluster id and the first outcome stick, and the graph goes.
func (j *ReplayJob) update(rec *Record, r *Replay) {
	j.Submitted.Graph = nil
	if j.ClusterID == "" {
		j.ClusterID = strings.Clone(rec.ClusterID)
	}
	if rec.Type == TypeDecided && j.Outcome == "" {
		j.Outcome = r.intern(rec.Outcome)
		j.DecisionLatency = rec.DecisionLatency
	}
}

// folded is the job as one TypeFolded record.
func (j *ReplayJob) folded() Record {
	rec := j.Submitted
	rec.Type = TypeFolded
	rec.ClusterID, rec.Outcome, rec.DecisionLatency = j.ClusterID, j.Outcome, j.DecisionLatency
	return rec
}

// nextAfter is the NextSeq a record of sequence number seq asks for: one
// past it, or seq itself at the top of the range, so that NextSeq only grows.
func nextAfter(seq uint64) uint64 {
	if seq == math.MaxUint64 {
		return seq
	}
	return seq + 1
}

// minFrame is the fewest bytes a record can take in the file.
const minFrame = frameHeader + 2

// reserve sizes the tables, still empty, for the jobs a checkpoint header
// announces, but for no more than limit.
func (r *Replay) reserve(jobs float64) {
	if len(r.Jobs) > 0 || !(jobs >= 1) || r.limit < 1 {
		return
	}
	n := int(min(jobs, float64(r.limit)))
	r.Jobs = make([]*ReplayJob, 0, n)
	r.byID = make(map[string]*ReplayJob, n)
}

// intern is s, copied the first time it is seen.
func (r *Replay) intern(s string) string {
	if v, ok := r.names[s]; ok {
		return v
	}
	v := strings.Clone(s)
	r.names[v] = v
	return v
}
