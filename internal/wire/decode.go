// Decoding half of the codec. Decoding materializes payload values —
// structs, strings, slices, graphs — that it hands to the caller, so every
// frame inherently allocates its payload; per-allocation justifications
// would restate that on every line.
//
//lint:file-allow hotalloc -- decode's product is a freshly materialized payload; its allocations are the output, not overhead
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/core/txn"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/simnet"
)

// Decode parses one framed payload. Trailing bytes after the frame are an
// error here (the stream reader consumes exactly one frame at a time);
// trailing bytes *inside* a message body are ignored for forward
// compatibility.
//
//lint:hotpath -- every received frame passes through here; allocations beyond the payload itself are regressions
func Decode(buf []byte) (simnet.Payload, error) {
	p, n, err := DecodeFrame(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after frame", len(buf)-n)
	}
	return p, nil
}

// DecodeFrame parses the first frame in buf, returning the payload and the
// number of bytes consumed.
//
//lint:hotpath -- the stream reader calls this once per frame on every connection
func DecodeFrame(buf []byte) (simnet.Payload, int, error) {
	if len(buf) < headerLen {
		return nil, 0, fmt.Errorf("wire: frame header truncated (%d bytes)", len(buf))
	}
	n := int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	if n < 2 {
		return nil, 0, fmt.Errorf("wire: frame length %d below minimum", n)
	}
	if n > MaxFrame {
		return nil, 0, fmt.Errorf("wire: frame length %d exceeds MaxFrame", n)
	}
	if len(buf) < 4+n {
		return nil, 0, fmt.Errorf("wire: frame truncated (%d of %d bytes)", len(buf)-4, n)
	}
	version, kind := buf[4], Kind(buf[5])
	if version != Version {
		return nil, 0, fmt.Errorf("wire: version %d, want %d", version, Version)
	}
	p, err := decodePayload(kind, buf[6:4+n])
	if err != nil {
		return nil, 0, err
	}
	return p, 4 + n, nil
}

// decodePayload dispatches on the frame kind. The switch is exhaustive
// with no default — the exhaustive analyzer fails the build when a new
// Kind constant is not handled here — and values outside the known range
// fall through to the unknown-kind error below.
func decodePayload(kind Kind, body []byte) (simnet.Payload, error) {
	d := &dec{b: body}
	var p simnet.Payload
	switch kind {
	case kindHello:
		// Hello frames identify the dialing site to the transport and are
		// consumed there; one reaching the codec is a framing bug.
		return nil, fmt.Errorf("wire: %v frame reached the payload codec", kind)
	case kindRouted:
		src := graph.NodeID(d.varint())
		dest := graph.NodeID(d.varint())
		ttl := int(d.varint())
		if d.err != nil {
			return nil, d.err
		}
		if len(d.b) < 1 {
			return nil, fmt.Errorf("wire: routed frame without inner payload")
		}
		innerKind := Kind(d.b[0])
		if innerKind == kindRouted {
			return nil, fmt.Errorf("wire: nested routed payloads are not allowed")
		}
		inner, err := decodePayload(innerKind, d.b[1:])
		if err != nil {
			return nil, err
		}
		return core.NewRouted(src, dest, ttl, inner), nil
	case kindTable:
		m := routing.TableMsg{}
		m.Round = int(d.varint())
		m.Epoch = d.uvarint()
		m.Entries = decodeRoutes(d)
		p = m
	case kindEnrollReq:
		p = core.EnrollReq{
			Job:       d.str(),
			Initiator: graph.NodeID(d.varint()),
			Window:    d.f64(),
		}
	case kindEnrollAck:
		m := core.EnrollAck{
			Job:     d.str(),
			Member:  graph.NodeID(d.varint()),
			Surplus: d.f64(),
			Power:   d.f64(),
		}
		n := d.count(2)
		for i := 0; i < n && d.err == nil; i++ {
			m.Dists = append(m.Dists, txn.DistEntry{
				Dest: graph.NodeID(d.varint()),
				Dist: d.f64(),
			})
		}
		p = m
	case kindValidateReq:
		m := core.ValidateReq{
			Job:       d.str(),
			Initiator: graph.NodeID(d.varint()),
			NumProcs:  int(d.varint()),
		}
		procs := d.count(1)
		for i := 0; i < procs && d.err == nil; i++ {
			wins := d.count(4)
			var ws []mapper.TaskWindow
			for k := 0; k < wins && d.err == nil; k++ {
				ws = append(ws, mapper.TaskWindow{
					Task:       dag.TaskID(d.varint()),
					Complexity: d.f64(),
					Release:    d.f64(),
					Deadline:   d.f64(),
				})
			}
			m.Windows = append(m.Windows, ws)
		}
		p = m
	case kindValidateAck:
		m := core.ValidateAck{
			Job:    d.str(),
			Member: graph.NodeID(d.varint()),
		}
		n := d.count(1)
		for i := 0; i < n && d.err == nil; i++ {
			m.Endorsable = append(m.Endorsable, int(d.varint()))
		}
		p = m
	case kindCommit:
		m := core.CommitMsg{
			Job:       d.str(),
			Initiator: graph.NodeID(d.varint()),
			Proc:      int(d.varint()),
			CodeBytes: int(d.varint()),
		}
		if d.bool() {
			g, err := decodeGraph(d)
			if err != nil {
				return nil, err
			}
			m.Graph = g
		}
		n := d.count(2)
		if n > 0 {
			m.TaskSites = make(map[dag.TaskID]graph.NodeID, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			task := dag.TaskID(d.varint())
			m.TaskSites[task] = graph.NodeID(d.varint())
		}
		p = m
	case kindCommitAck:
		p = core.CommitAck{
			Job:    d.str(),
			Member: graph.NodeID(d.varint()),
			OK:     d.bool(),
		}
	case kindUnlock:
		p = core.UnlockMsg{
			Job:   d.str(),
			From:  graph.NodeID(d.varint()),
			Abort: d.bool(),
		}
	case kindUnlockAck:
		p = core.UnlockAck{
			Job:    d.str(),
			Member: graph.NodeID(d.varint()),
		}
	case kindResult:
		p = core.ResultMsg{
			Job:   d.str(),
			Task:  dag.TaskID(d.varint()),
			For:   dag.TaskID(d.varint()),
			Bytes: int(d.varint()),
		}
	case kindDone:
		p = core.DoneMsg{
			Job:  d.str(),
			Task: dag.TaskID(d.varint()),
			At:   d.f64(),
		}
	case kindHeartbeat:
		m := membership.Heartbeat{Inc: d.uvarint()}
		m.Digest = decodeEntries(d)
		p = m
	case kindDead:
		p = membership.DeadNotice{
			Site: graph.NodeID(d.varint()),
			Inc:  d.uvarint(),
		}
	case kindAlive:
		p = membership.AliveNotice{
			Site: graph.NodeID(d.varint()),
			Inc:  d.uvarint(),
		}
	case kindJoinReq:
		p = membership.JoinReq{Inc: d.uvarint()}
	case kindJoinAck:
		m := membership.JoinAck{Inc: d.uvarint(), Epoch: d.uvarint()}
		m.Digest = decodeEntries(d)
		m.Table = decodeRoutes(d)
		m.TableChunks = int(d.varint())
		p = m
	case kindTableChunk:
		m := membership.TableChunk{
			Epoch: d.uvarint(),
			Seq:   int(d.varint()),
			Total: int(d.varint()),
		}
		m.Entries = decodeRoutes(d)
		p = m
	case kindRegionDigest:
		m := membership.RegionDigest{Region: int(d.varint())}
		m.Digest = decodeEntries(d)
		p = m
	case kindLandmarkAd:
		p = hier.LandmarkAd{
			Region:   int(d.varint()),
			Landmark: graph.NodeID(d.varint()),
			Dist:     d.f64(),
			Hops:     int(d.varint()),
		}
	}
	if p == nil {
		return nil, fmt.Errorf("wire: unknown message kind %v", kind)
	}
	if d.err != nil {
		return nil, fmt.Errorf("wire: decoding %v frame: %w", kind, d.err)
	}
	// Bytes left in d.b are fields appended by a newer peer: ignored.
	return p, nil
}

func decodeGraph(d *dec) (*dag.Graph, error) {
	name := d.str()
	release := d.f64()
	deadline := d.f64()
	b := dag.NewBuilder(name).SetWindow(release, deadline)
	nTasks := d.count(10)
	for i := 0; i < nTasks && d.err == nil; i++ {
		id := dag.TaskID(d.varint())
		complexity := d.f64()
		label := d.str()
		b.AddLabeledTask(id, complexity, label)
	}
	nEdges := d.count(10)
	for i := 0; i < nEdges && d.err == nil; i++ {
		from := dag.TaskID(d.varint())
		to := dag.TaskID(d.varint())
		vol := d.f64()
		b.AddDataEdge(from, to, vol)
	}
	if d.err != nil {
		return nil, d.err
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("wire: invalid graph on the wire: %w", err)
	}
	return g, nil
}

func decodeRoutes(d *dec) []routing.WireRoute {
	n := d.count(2)
	var out []routing.WireRoute
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, routing.WireRoute{
			Dest:     graph.NodeID(d.varint()),
			Dist:     d.f64(),
			PathHops: int(d.varint()),
			MinHops:  int(d.varint()),
		})
	}
	return out
}

func decodeEntries(d *dec) []membership.Entry {
	n := d.count(3)
	var out []membership.Entry
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, membership.Entry{
			Site: graph.NodeID(d.varint()),
			Inc:  d.uvarint(),
			Dead: d.bool(),
		})
	}
	return out
}

// dec is a cursor over one frame body. The first malformed read latches
// err; subsequent reads return zero values, so decode functions read their
// whole field list and check err once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

func (d *dec) bool() bool { return d.u8() != 0 }

// count reads a sequence length and sanity-checks it against the bytes
// left: every element costs at least min bytes, so a count that cannot fit
// is a corrupt frame, refused before it can size an allocation.
func (d *dec) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)/min) {
		d.fail("sequence length %d exceeds remaining %d bytes", n, len(d.b))
		return 0
	}
	return int(n)
}
