package joblog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// refDecode is the tests' own reading of a record body, written apart from
// decodeBody so that the reference below is a second implementation: a JSON
// body goes to encoding/json, and a binary one is read through a
// bytes.Reader with the io-based helpers of encoding/binary.
func refDecode(body []byte) (Record, error) {
	var rec Record
	if len(body) > 0 && body[0] == '{' {
		err := json.Unmarshal(body, &rec)
		return rec, err
	}
	r := bytes.NewReader(body)
	var bad error
	fail := func(err error) {
		if bad == nil {
			bad = err
		}
	}
	version, err := r.ReadByte()
	fail(err)
	if err == nil && version != 1 {
		fail(fmt.Errorf("version %d", version))
	}
	typ, err := r.ReadByte()
	fail(err)
	rec.Type = map[byte]RecordType{1: TypeSubmitted, 2: TypeForwarded, 3: TypeDecided}[typ]
	if rec.Type == "" {
		fail(fmt.Errorf("type byte %d", typ))
	}
	bytesField := func() []byte {
		n, err := binary.ReadUvarint(r)
		fail(err)
		if bad != nil || n > uint64(r.Len()) {
			fail(io.ErrUnexpectedEOF)
			return nil
		}
		b := make([]byte, n)
		_, err = io.ReadFull(r, b)
		fail(err)
		return b
	}
	float := func() float64 {
		var v float64
		fail(binary.Read(r, binary.LittleEndian, &v))
		return v
	}
	rec.ID = string(bytesField())
	rec.Seq, err = binary.ReadUvarint(r)
	fail(err)
	rec.Tenant = string(bytesField())
	rec.ClientKey = string(bytesField())
	rec.At = float()
	rec.Deadline = float()
	if g := bytesField(); len(g) > 0 {
		rec.Graph = g
	}
	rec.ClusterID = string(bytesField())
	rec.Outcome = string(bytesField())
	rec.DecisionLatency = float()
	if r.Len() > 0 {
		fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if bad != nil {
		return Record{}, bad
	}
	return rec, nil
}

// scan is the recovery scanner as it was before recovery streamed: the whole
// file in memory, one frame after the other, every record kept. It is the
// reference the streaming replay is tested against.
func scan(data []byte) ([]Record, int64, error) {
	var records []Record
	var offset int64
	for int64(len(data))-offset >= frameHeader {
		body, next, ok := frameAt(data, offset)
		if !ok {
			break
		}
		rec, err := refDecode(body)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, offset, err)
		}
		records = append(records, rec)
		offset = next
	}
	rest := data[offset:]
	for probe := int64(1); probe+frameHeader <= int64(len(rest)); probe++ {
		if _, _, ok := frameAt(rest, probe); ok {
			return nil, 0, fmt.Errorf("%w: valid frame after damage at offset %d", ErrCorrupt, offset)
		}
	}
	return records, offset, nil
}

// replayBytes runs the streaming replay over a file image.
func replayBytes(t testing.TB, dir string, data []byte, chunkSize int) ([]Record, int64, error) {
	t.Helper()
	path := filepath.Join(dir, "image")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var records []Record
	valid, err := replay(f, chunkSize, func(recs []Record) {
		for _, rec := range recs {
			records = append(records, rec.clone())
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return records, valid, nil
}

// agree checks that the streaming replay and the reference read data alike:
// the same records, the same valid offset, the same class of error — with
// the chunks recovery uses, and with chunks of a frame or two, which put a
// chunk boundary, and the limit on chunks in flight, everywhere.
func agree(t testing.TB, dir, what string, data []byte) {
	t.Helper()
	agreeAt(t, dir, what, data, chunkBytes)
	agreeAt(t, dir, what+", tiny chunks", data, 200)
}

func agreeAt(t testing.TB, dir, what string, data []byte, chunkSize int) {
	t.Helper()
	wantRecs, wantValid, wantErr := scan(data)
	gotRecs, gotValid, gotErr := replayBytes(t, dir, data, chunkSize)
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) {
		t.Fatalf("%s: replay error %v, reference %v", what, gotErr, wantErr)
	}
	if gotValid != wantValid {
		t.Fatalf("%s: valid prefix ends at %d, reference says %d", what, gotValid, wantValid)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("%s: %d records, reference has %d", what, len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if !reflect.DeepEqual(gotRecs[i], wantRecs[i]) {
			t.Fatalf("%s: record %d is %+v, reference has %+v", what, i, gotRecs[i], wantRecs[i])
		}
	}
}

// rawFrame frames an arbitrary body with a correct CRC.
func rawFrame(body []byte) []byte {
	out := make([]byte, frameHeader, frameHeader+len(body))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// randomLog builds a log image of n records of mixed types and sizes and
// returns it with the offset of every frame. With large set, one submitted
// record in a dozen is tens of kilobytes, so that chunks end in odd places;
// huge adds one record larger than a chunk's buffer.
func randomLog(rng *rand.Rand, n int, large, huge bool) (data []byte, offsets []int) {
	hugeAt := -1
	if huge && n > 0 {
		hugeAt = rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("g%d", rng.Intn(n/2+1))
		var r Record
		switch rng.Intn(3) {
		case 0:
			size := rng.Intn(600)
			switch {
			case i == hugeAt:
				size = 2*chunkBytes + rng.Intn(chunkBytes)
			case large && rng.Intn(12) == 0:
				size = 10000 + rng.Intn(40000)
			}
			graph := `{"name":"` + strings.Repeat("x", size) + `"}`
			r = Record{Type: TypeSubmitted, ID: id, Seq: uint64(i), Tenant: "acme", ClientKey: fmt.Sprint("k", i),
				At: rng.Float64(), Deadline: 1 + rng.Float64()*100, Graph: json.RawMessage(graph)}
		case 1:
			r = Record{Type: TypeForwarded, ID: id, Tenant: "acme", ClusterID: fmt.Sprintf("j%d@%d", i, rng.Intn(8))}
		default:
			r = Record{Type: TypeDecided, ID: id, Tenant: "acme", Outcome: "rejected", DecisionLatency: rng.Float64()}
		}
		offsets = append(offsets, len(data))
		var err error
		if data, err = appendFrame(data, r); err != nil {
			panic(err)
		}
	}
	return data, offsets
}

// withGOMAXPROCS runs fn at each of the given settings: the replay's worker
// count is GOMAXPROCS.
func withGOMAXPROCS(t *testing.T, fn func(t *testing.T), settings ...int) {
	for _, p := range settings {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			fn(t)
		})
	}
}

// The streaming replay against the whole-file reference, over seeded random
// logs and the damage a crash or a disk can do to them.
func TestReplayMatchesReference(t *testing.T) {
	withGOMAXPROCS(t, func(t *testing.T) {
		dir := t.TempDir()
		for seed := int64(0); seed < 24; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(80)
			if seed%8 == 0 {
				n = 300 + rng.Intn(200) // most of a megabyte: more full-size chunks than are in flight at once
			}
			data, offsets := randomLog(rng, n, true, seed%5 == 0)
			name := func(what string, args ...any) string {
				return fmt.Sprintf("seed %d, %d records, %s", seed, n, fmt.Sprintf(what, args...))
			}
			agree(t, dir, name("intact"), data)
			if n == 0 {
				continue
			}

			// A byte flipped anywhere: in a header, in a body, in the tail.
			for k := 0; k < 4; k++ {
				at := rng.Intn(len(data))
				flipped := append([]byte(nil), data...)
				flipped[at] ^= 1 << rng.Intn(8)
				agree(t, dir, name("bit flipped at %d", at), flipped)
			}

			// A length field no record can have, and one that is merely wrong.
			for _, length := range []uint32{MaxRecord + 1, 0, uint32(rng.Intn(5000))} {
				at := offsets[rng.Intn(n)]
				bad := append([]byte(nil), data...)
				binary.LittleEndian.PutUint32(bad[at:], length)
				agree(t, dir, name("length %d at %d", length, at), bad)
			}

			// A frame whose CRC is right and whose body is not a record, in
			// the middle and at the very end: a cut JSON body, and a binary
			// one whose last float is cut.
			for _, body := range [][]byte{[]byte(`{"type":"submitted","id":`), decidedBody[:len(decidedBody)-3]} {
				foreign := rawFrame(body)
				at := offsets[rng.Intn(n)]
				agree(t, dir, name("foreign frame %q at %d", body, at), bytes.Join([][]byte{data[:at], foreign, data[at:]}, nil))
				agree(t, dir, name("foreign frame %q at the end", body), append(append([]byte(nil), data...), foreign...))
			}
		}

		// The torn tail: the file cut at every byte of its last frame.
		for seed := int64(100); seed < 104; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(80)
			if seed == 100 {
				n = 650 // a little over one full-size chunk
			}
			data, offsets := randomLog(rng, n, false, false)
			tail, err := appendFrame(nil, rec(TypeSubmitted, "last", 9999))
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, tail...)
			for cut := len(data) - len(tail); cut <= len(data); cut++ {
				agree(t, dir, fmt.Sprintf("seed %d cut at %d of %d", seed, cut, len(data)), data[:cut])
			}
			// …and in the middle of history, where it is corruption.
			at := offsets[len(offsets)/2]
			agree(t, dir, fmt.Sprintf("seed %d, hole at %d", seed, at), append(append([]byte(nil), data[:at+3]...), data[at+40:]...))
		}
	}, 1, 4)
}

// addReplaySeeds seeds a fuzz target with log images: intact, torn, holed,
// with foreign frames behind good CRCs, and the given files of testdata.
func addReplaySeeds(f *testing.F, files ...string) {
	rng := rand.New(rand.NewSource(1))
	intact, offsets := randomLog(rng, 12, false, false)
	f.Add(intact)
	f.Add(intact[:len(intact)-5])
	f.Add(append(append([]byte(nil), intact[:offsets[6]+2]...), intact[offsets[6]+9:]...))
	f.Add(append(append([]byte(nil), intact...), rawFrame([]byte("not json"))...))
	f.Add([]byte{})
	// Binary bodies behind good CRCs: a whole one, one with a byte too many.
	f.Add(rawFrame(decidedBody))
	f.Add(append(append([]byte(nil), intact...), rawFrame(append(append([]byte(nil), decidedBody...), 0))...))
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzReplay feeds arbitrary file images to the streaming replay: it must
// not panic, must agree with the reference, and so can never yield a record
// from behind a frame that failed its CRC.
func FuzzReplay(f *testing.F) {
	addReplaySeeds(f, "parent.wal") // the JSON-bodied log of the format before
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32<<10 {
			t.Skip("the reference's search for a frame after the damage is quadratic")
		}
		agree(t, dir, "fuzz input", data)
		// Stated on its own, against nothing but the frame format: every
		// record comes from a frame whose CRC holds, in file order.
		records, _, err := replayBytes(t, dir, data, chunkBytes)
		if err != nil {
			return
		}
		offset := int64(0)
		for i := range records {
			_, next, ok := frameAt(data, offset)
			if !ok {
				t.Fatalf("record %d was yielded from offset %d, where no frame passes its CRC", i, offset)
			}
			offset = next
		}
	})
}

// FuzzRecover checks the borrowing fold against the copying one: for any
// file image, Recover's Replay equals Summarize of Open's records, whose
// every string and graph is a copy, or both refuse the image with the same
// class of error. The fold is also run on chunks of a frame or two, so that
// the chunks it borrows from are reused while it runs.
func FuzzRecover(f *testing.F) {
	addReplaySeeds(f, "parent.wal", "v1.wal")
	dir := f.TempDir()
	path := filepath.Join(dir, "image")
	load := func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("the search for a frame after the damage is quadratic")
		}
		load(t, data)
		var want *Replay
		l, records, wantErr := Open(path, Options{NoSync: true})
		if wantErr == nil {
			want = Summarize(records)
			l.Close()
		}

		load(t, data)
		l, got, err := Recover(path, Options{NoSync: true})
		if err == nil {
			l.Close()
		}
		sameReplay(t, "Recover", got, err, want, wantErr)

		load(t, data)
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		tiny := newReplay()
		if _, err = replay(file, 200, tiny.fold); err != nil {
			tiny = nil
		}
		sameReplay(t, "tiny chunks", tiny, err, want, wantErr)
	})
}

// sameReplay fails t unless got and want hold the same jobs in the same
// order, each with the same submitted record, cluster id, outcome and
// latency, and the same NextSeq; or unless both errors are of one class.
func sameReplay(t *testing.T, what string, got *Replay, gotErr error, want *Replay, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) {
		t.Fatalf("%s: error %v, Open's %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.NextSeq != want.NextSeq || len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs, NextSeq %d; Summarize has %d and %d",
			what, len(got.Jobs), got.NextSeq, len(want.Jobs), want.NextSeq)
	}
	for i, j := range want.Jobs {
		// %#v, not DeepEqual: a float field may be NaN.
		if g, w := fmt.Sprintf("%#v", *got.Jobs[i]), fmt.Sprintf("%#v", *j); g != w {
			t.Fatalf("%s: job %d is\n%s\nSummarize has\n%s", what, i, g, w)
		}
	}
}

// decidedJob is one job's whole life as the gateway logs it: submitted with
// graph, forwarded and decided.
func decidedJob(i int, graph json.RawMessage) []Record {
	id, cluster := fmt.Sprintf("g%d", i), fmt.Sprintf("p%d@0", i)
	return []Record{
		{Type: TypeSubmitted, ID: id, Seq: uint64(i), Tenant: "acme", ClientKey: fmt.Sprintf("key-%d", i),
			Deadline: 100, Graph: graph},
		{Type: TypeForwarded, ID: id, Tenant: "acme", ClusterID: cluster},
		{Type: TypeDecided, ID: id, Tenant: "acme", ClusterID: cluster, Outcome: "accepted-local", DecisionLatency: 1},
	}
}

// randomGraph is n bytes of graph JSON, its name random letters: no two are
// alike, so a graph read out of a reused buffer shows.
func randomGraph(rng *rand.Rand, n int) json.RawMessage {
	name := make([]byte, n-len(`{"name":""}`))
	for i := range name {
		name[i] = 'a' + byte(rng.Intn(26))
	}
	return json.RawMessage(`{"name":"` + string(name) + `"}`)
}

// A queued job's graph outlives the chunk it was read from. Recovery
// borrows every record from a chunk that is reused once folded, and copies
// a submitted graph, when its chunk is done, only if the job is still
// queued. Here the queued job's chunk is reused many times before recovery
// ends, and the job submitted next to it is forwarded chunks later.
func TestRecoverKeepsQueuedGraphsAcrossChunks(t *testing.T) {
	withGOMAXPROCS(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		path := filepath.Join(t.TempDir(), "joblog")
		l, _ := openOrDie(t, path, Options{NoSync: true})
		queued, forwarded := randomGraph(rng, 640), randomGraph(rng, 640)
		if err := l.AppendNoWait(
			Record{Type: TypeSubmitted, ID: "queued", Seq: 1, Tenant: "acme", Deadline: 40, Graph: queued},
			Record{Type: TypeSubmitted, ID: "forwarded", Seq: 2, Tenant: "acme", Deadline: 40, Graph: forwarded},
		); err != nil {
			t.Fatal(err)
		}
		// Three times the chunks that are ever in flight at once.
		filler := 3 * 2 * runtime.GOMAXPROCS(0) * chunkBytes / 640
		for i := 3; i < 3+filler; i++ {
			if err := l.AppendNoWait(decidedJob(i, randomGraph(rng, 640))...); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AppendNoWait(Record{Type: TypeForwarded, ID: "forwarded", ClusterID: "j1@0"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, rep, err := Recover(path, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if len(rep.Jobs) != 2+filler {
			t.Fatalf("%d jobs recovered, want %d", len(rep.Jobs), 2+filler)
		}
		if q := rep.Jobs[0]; q.Submitted.ID != "queued" || !bytes.Equal(q.Submitted.Graph, queued) {
			t.Errorf("the queued job %s recovered with graph %.80q…, want %.80q…", q.Submitted.ID, q.Submitted.Graph, queued)
		}
		if f := rep.Jobs[1]; f.Submitted.ID != "forwarded" || f.ClusterID != "j1@0" || f.Submitted.Graph != nil {
			t.Errorf("the forwarded job %s recovered with cluster id %q and %d graph bytes, want j1@0 and none",
				f.Submitted.ID, f.ClusterID, len(f.Submitted.Graph))
		}
		for _, j := range rep.Jobs[2:] {
			if j.Submitted.Graph != nil || j.Outcome != "accepted-local" {
				t.Fatalf("decided job %s recovered as %+v", j.Submitted.ID, j)
			}
		}
	}, 1, 4)
}

// Recovery allocates what the Replay keeps of a job and little more: for a
// decided job, its id, client key and cluster id, 3 allocations, its entry
// coming 256 to a block. Its graph is never copied, its tenant and outcome
// are shared with every other job's, and the chunks, buffers and workers are
// shared by the whole log. That share grows with the workers (two chunks in
// flight each), so their number is fixed.
func TestRecoverAllocatesWhatItKeeps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const jobs = 20000
	rng := rand.New(rand.NewSource(5))
	graphs := []json.RawMessage{randomGraph(rng, 640), randomGraph(rng, 640), randomGraph(rng, 640)}
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, Options{NoSync: true})
	for i := 1; i <= jobs; i++ {
		if err := l.AppendNoWait(decidedJob(i, graphs[i%len(graphs)])...); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l, rep, err := Recover(path, Options{NoSync: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rep.Jobs) != jobs {
		t.Fatalf("%d jobs recovered, want %d", len(rep.Jobs), jobs)
	}
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	allocs := float64(after.Mallocs-before.Mallocs) / jobs
	t.Logf("Recover: %.0f B and %.2f allocations per decided job", perJob, allocs)
	if perJob > 500 || allocs >= 4 {
		t.Errorf("Recover allocated %.0f B in %.2f allocations per decided job, want at most 500 B and fewer than 4", perJob, allocs)
	}
}

// A log of JSON bodies, written by the commit before the streaming replay
// (testdata/parent.wal, by its Append), recovers to the state that commit's
// Open and Summarize gave, and so does testdata/v1.wal, the same records as
// the first binary writer framed them. Today's writer frames them into
// v1.wal's bytes, and a JSON log that a binary writer appends to recovers
// whole.
func TestParentFormatReplays(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.wal"))
	if err != nil {
		t.Fatal(err)
	}

	type state struct {
		id, tenant, key, cluster, outcome string
		deadline                          float64
		graph                             bool
	}
	want := []state{
		{"g1", "acme", "k1", "j1@0", "accepted-local", 40, false},
		{"g2", "zeta", "", "", "", 12.25, true},
		{"g3", "acme", "k<3>&", "j2@1", "rejected", 7, false}, // decided before forwarded
		{"g4", "acme", "", "j3@2", "", 9, false},
	}
	path := filepath.Join(t.TempDir(), "joblog")
	recoverImage := func(what string, image []byte) *Log {
		t.Helper()
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := Recover(path, Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(rep.Jobs) != len(want) || rep.NextSeq != 5 {
			t.Fatalf("%s: %d jobs, NextSeq %d; want %d and 5", what, len(rep.Jobs), rep.NextSeq, len(want))
		}
		for i, j := range rep.Jobs {
			got := state{j.Submitted.ID, j.Submitted.Tenant, j.Submitted.ClientKey, j.ClusterID, j.Outcome,
				j.Submitted.Deadline, j.Submitted.Graph != nil}
			if got != want[i] {
				t.Errorf("%s: job %d: %+v, want %+v", what, i, got, want[i])
			}
		}
		return l
	}
	recoverImage("v1.wal", v1).Close()
	l := recoverImage("parent.wal", golden)

	records, _, err := scan(golden)
	if err != nil {
		t.Fatal(err)
	}
	var rewritten []byte
	for _, r := range records {
		if rewritten, err = appendFrame(rewritten, r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(rewritten, v1) {
		t.Error("today's writer frames the parent's records into bytes other than v1.wal's")
	}

	// The JSON log, recovered and appended to in the binary format.
	if err := l.AppendNoWait(Record{Type: TypeDecided, ID: "g2", Outcome: "rejected"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, mixed := openOrDie(t, path, Options{NoSync: true})
	defer l.Close()
	if len(mixed) != len(records)+1 || !reflect.DeepEqual(mixed[:len(records)], records) || mixed[len(records)].Outcome != "rejected" {
		t.Errorf("a JSON log with a binary record appended recovered as %+v", mixed)
	}
}

// Recover keeps a job's graph only while the job may have to be submitted
// again, whichever of forwarded and decided comes first.
func TestRecoverReleasesGraphs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, Options{NoSync: true})
	if err := l.AppendNoWait(
		rec(TypeSubmitted, "queued", 1),
		rec(TypeSubmitted, "forwarded", 2),
		Record{Type: TypeForwarded, ID: "forwarded", ClusterID: "j1@0"},
		rec(TypeSubmitted, "decided", 3),
		Record{Type: TypeForwarded, ID: "decided", ClusterID: "j2@0"},
		Record{Type: TypeDecided, ID: "decided", Outcome: "rejected"},
		rec(TypeSubmitted, "overtaken", 4),
		Record{Type: TypeDecided, ID: "overtaken", Outcome: "accepted-local"},
		Record{Type: TypeForwarded, ID: "overtaken", ClusterID: "j3@0"},
	); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rep, err := Recover(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rep.Jobs) != 4 {
		t.Fatalf("%d jobs recovered, want 4", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		queued := j.ClusterID == "" && j.Outcome == ""
		if queued != (j.Submitted.ID == "queued") {
			t.Errorf("job %s: cluster id %q, outcome %q", j.Submitted.ID, j.ClusterID, j.Outcome)
		}
		if held := j.Submitted.Graph != nil; held != queued {
			t.Errorf("job %s: graph held = %v, want %v", j.Submitted.ID, held, queued)
		}
	}
	if j := rep.Jobs[3]; j.ClusterID != "j3@0" || j.Outcome != "accepted-local" {
		t.Errorf("a decision logged before its forward folded to %+v", j)
	}
}

// Recovery's memory is the chunks in flight: replaying 10,000 decided jobs
// (30,000 records, about 22 MB) never has more than a few megabytes live,
// where the file, or a list of its records, would be tens.
func TestReplayMemoryIsBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const jobs = 10000
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, Options{NoSync: true})
	graph := json.RawMessage(`{"name":"` + strings.Repeat("g", 2000) + `"}`)
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("g%d", i)
		if err := l.AppendNoWait(
			Record{Type: TypeSubmitted, ID: id, Seq: uint64(i), Tenant: "acme", Deadline: 40, Graph: graph},
			Record{Type: TypeForwarded, ID: id, Tenant: "acme", ClusterID: "j@0"},
			Record{Type: TypeDecided, ID: id, Tenant: "acme", ClusterID: "j@0", Outcome: "accepted-local"},
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}

	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := live()
	var peak uint64
	n := 0
	if _, err := replay(f, chunkBytes, func(recs []Record) {
		for range recs {
			if n++; n%1000 == 0 {
				peak = max(peak, live())
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3*jobs {
		t.Fatalf("replayed %d records, want %d", n, 3*jobs)
	}
	const bound = 6 << 20
	if st.Size() < 2*bound {
		t.Fatalf("the log is %d bytes: too small to tell a stream from a copy", st.Size())
	}
	if grown := int64(peak) - int64(base); grown > bound {
		t.Errorf("replaying a %d MB log held %d MB live; the chunk pipeline should hold a few",
			st.Size()>>20, grown>>20)
	}
}

// orderWriter records, in one sequence, every write and every fsync's start
// and end.
type orderWriter struct {
	syncWriter
	mu     sync.Mutex
	events []string // "w <id>", "sync", "synced"
}

func (o *orderWriter) log(e string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, e)
	return len(o.events)
}

func (o *orderWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; { // one event per frame of the write
		body, next, ok := frameAt(rest, 0)
		if !ok {
			panic("a write that is not whole frames")
		}
		r, err := refDecode(body)
		if err != nil {
			panic(err)
		}
		o.log("w " + r.ID)
		rest = rest[next:]
	}
	return o.syncWriter.Write(p)
}

func (o *orderWriter) Sync() error {
	o.log("sync")
	err := o.syncWriter.Sync()
	o.log("synced")
	return err
}

// The durability rule itself: an Append returns only after an fsync that
// STARTED after its record was written has ended; an AppendNoWait returns
// without one, and Sync or Close supplies it only when it is owed.
func TestAppendWaitsForAnFsyncThatStartedAfterItsWrite(t *testing.T) {
	ow := &orderWriter{}
	opts := testOpts()
	opts.failpoint = func(w syncWriter) syncWriter { ow.syncWriter = w; return ow }
	l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog"), opts)

	const workers, each = 8, 40
	returned := make(map[string]int) // id -> length of the event sequence when its Append returned
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("a%d-%d", w, i)
				if err := l.AppendNoWait(Record{Type: TypeForwarded, ID: "n" + id}); err != nil {
					t.Error(err)
					return
				}
				if err := l.Append(rec(TypeSubmitted, id, 0)); err != nil {
					t.Error(err)
					return
				}
				at := ow.log("returned " + id)
				mu.Lock()
				returned[id] = at
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	ow.mu.Lock()
	events := append([]string(nil), ow.events...)
	ow.mu.Unlock()
	syncs := 0
	for i, e := range events {
		if e == "sync" {
			syncs++
		}
		id, isWrite := strings.CutPrefix(e, "w a")
		if !isWrite {
			continue
		}
		id = "a" + id
		covered := false
		started := false
		for _, later := range events[i+1 : returned[id]-1] {
			switch later {
			case "sync":
				started = true
			case "synced":
				covered = covered || started
			}
		}
		if !covered {
			t.Fatalf("Append of %s returned with no fsync begun and ended since its write (event %d)", id, i)
		}
	}
	if syncs >= workers*each {
		t.Errorf("%d fsyncs for %d appends from %d goroutines: nothing was shared", syncs, workers*each, workers)
	}

	// Everything is covered now: Sync owes nothing and must not reach the disk.
	before := len(events)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := ow.log("probe") - 1; got != before {
		t.Errorf("Sync on a clean log caused %v", ow.events[before:got])
	}
	// One record nobody waited for: it is owed an fsync, by Sync or by Close.
	if err := l.AppendNoWait(Record{Type: TypeDecided, ID: "tail"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if tail := ow.events[len(ow.events)-3:]; !reflect.DeepEqual(tail, []string{"w tail", "sync", "synced"}) {
		t.Errorf("Close after a not-waited-on write did %v, want the write, then one fsync", tail)
	}
}
