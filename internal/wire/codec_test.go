package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

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

// testGraph builds a small DAG with labels and data volumes, exercising
// every field the graph encoding carries.
func testGraph(t testing.TB) *dag.Graph {
	t.Helper()
	g, err := dag.NewBuilder("wire-job").SetWindow(1.5, 42).
		AddLabeledTask(1, 2.5, "src").
		AddTask(2, 1.25).
		AddTask(3, 0.75).
		AddDataEdge(1, 2, 8).
		AddEdge(1, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// samples returns one zero-value and one max-field instance of every
// message type the protocol puts on a link. The zero Routed is excluded:
// it has no header, and a routed frame without an inner payload is not
// encodable by design.
func samples(t testing.TB) []simnet.Payload {
	t.Helper()
	g := testGraph(t)
	return []simnet.Payload{
		// Routed wrapper, small and with a large inner payload.
		core.NewRouted(1, 2, 20, core.EnrollReq{Job: "j1@0", Initiator: 0, Window: 3.5}),
		core.NewRouted(31, 0, 0, core.CommitMsg{
			Job: "j9@31", Initiator: 31, Proc: 2, CodeBytes: 2048, Graph: g,
			TaskSites: map[dag.TaskID]graph.NodeID{1: 4, 2: 31, 3: 0},
		}),
		// PCS bootstrap tables and epoch-tagged repair floods.
		routing.TableMsg{},
		routing.TableMsg{Round: 5, Entries: []routing.WireRoute{
			{Dest: 0, Dist: 0, PathHops: 0, MinHops: 0},
			{Dest: 7, Dist: 0.35, PathHops: 3, MinHops: 2},
			{Dest: 127, Dist: 12.75, PathHops: 9, MinHops: 9},
		}},
		routing.TableMsg{Epoch: 9, Entries: []routing.WireRoute{
			{Dest: 3, Dist: 1.5, PathHops: 2, MinHops: 2},
		}},
		// Membership layer: heartbeats, notices, join handshake.
		membership.Heartbeat{},
		membership.Heartbeat{Inc: 3, Digest: []membership.Entry{
			{Site: 1, Inc: 2, Dead: true},
			{Site: 5, Inc: 7, Dead: false},
		}},
		membership.DeadNotice{},
		membership.DeadNotice{Site: 12, Inc: 4},
		membership.AliveNotice{},
		membership.AliveNotice{Site: 12, Inc: 5},
		membership.JoinReq{},
		membership.JoinReq{Inc: 6},
		membership.JoinAck{},
		membership.JoinAck{Inc: 6, Epoch: 11, Digest: []membership.Entry{
			{Site: 0, Inc: 1, Dead: false},
			{Site: 12, Inc: 6, Dead: false},
		}, Table: []routing.WireRoute{
			{Dest: 0, Dist: 0.5, PathHops: 1, MinHops: 1},
			{Dest: 3, Dist: 2.25, PathHops: 4, MinHops: 3},
		}, TableChunks: 3},
		membership.TableChunk{},
		membership.TableChunk{Epoch: 11, Seq: 2, Total: 3, Entries: []routing.WireRoute{
			{Dest: 513, Dist: 4.5, PathHops: 6, MinHops: 5},
			{Dest: 700, Dist: 0.25, PathHops: 1, MinHops: 1},
		}},
		// Hierarchical routing: landmark floods and cross-region digests.
		hier.LandmarkAd{},
		hier.LandmarkAd{Region: 17, Landmark: 450, Dist: 3.125, Hops: 7},
		membership.RegionDigest{},
		membership.RegionDigest{Region: 4, Digest: []membership.Entry{
			{Site: 40, Inc: 1, Dead: false},
			{Site: 41, Inc: 3, Dead: true},
		}},
		// The ten protocol messages: zero value, then max-field.
		core.EnrollReq{},
		core.EnrollReq{Job: "j3@7", Initiator: 7, Window: 1.75},
		core.EnrollAck{},
		core.EnrollAck{Job: "j3@7", Member: 2, Surplus: 0.875, Power: 2,
			Dists: []txn.DistEntry{{Dest: 0, Dist: 0.05}, {Dest: 9, Dist: 1.5}}},
		core.ValidateReq{},
		core.ValidateReq{Job: "j3@7", Initiator: 7, NumProcs: 2, Windows: [][]mapper.TaskWindow{
			{{Task: 1, Complexity: 2, Release: 0.5, Deadline: 10}},
			{},
			{{Task: 2, Complexity: 1, Release: 2.5, Deadline: 10}, {Task: 3, Complexity: 0.5, Release: 3, Deadline: 10}},
		}},
		core.ValidateAck{},
		core.ValidateAck{Job: "j3@7", Member: 2, Endorsable: []int{0, 2, 5}},
		core.CommitMsg{},
		core.CommitMsg{Job: "j3@7", Initiator: 7, Proc: -1},
		core.CommitMsg{Job: "j3@7", Initiator: 7, Proc: 1, CodeBytes: 768, Graph: g,
			TaskSites: map[dag.TaskID]graph.NodeID{1: 7, 2: 2, 3: 7}},
		core.CommitAck{},
		core.CommitAck{Job: "j3@7", Member: 2, OK: true},
		core.UnlockMsg{},
		core.UnlockMsg{Job: "j3@7", From: 7, Abort: true},
		core.UnlockAck{},
		core.UnlockAck{Job: "j3@7", Member: 2},
		core.ResultMsg{},
		core.ResultMsg{Job: "j3@7", Task: 2, For: 3, Bytes: 4096},
		core.DoneMsg{},
		core.DoneMsg{Job: "j3@7", Task: 3, At: 17.25},
	}
}

// graphsEqual compares two job DAGs structurally (the decoded graph is a
// distinct object rebuilt through the validating builder).
func graphsEqual(a, b *dag.Graph) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Name != b.Name || a.Release != b.Release || a.Deadline != b.Deadline {
		return false
	}
	if !reflect.DeepEqual(a.Tasks(), b.Tasks()) {
		return false
	}
	for _, t := range a.Tasks() {
		if !reflect.DeepEqual(a.Successors(t.ID), b.Successors(t.ID)) {
			return false
		}
		for _, s := range a.Successors(t.ID) {
			if a.EdgeVolume(t.ID, s) != b.EdgeVolume(t.ID, s) {
				return false
			}
		}
	}
	return true
}

// payloadsEqual is DeepEqual except for the graph pointers inside commit
// messages, which are compared structurally.
func payloadsEqual(a, b simnet.Payload) bool {
	switch am := a.(type) {
	case core.Routed:
		bm, ok := b.(core.Routed)
		return ok && am.Src == bm.Src && am.Dest == bm.Dest && am.TTL == bm.TTL &&
			payloadsEqual(am.Inner, bm.Inner)
	case core.CommitMsg:
		bm, ok := b.(core.CommitMsg)
		if !ok || !graphsEqual(am.Graph, bm.Graph) {
			return false
		}
		am.Graph, bm.Graph = nil, nil
		return reflect.DeepEqual(am, bm)
	case core.ValidateReq:
		// Compared element-wise: an empty per-proc window list and a nil one
		// are the same message (the decoder does not materialize empties).
		bm, ok := b.(core.ValidateReq)
		if !ok || am.Job != bm.Job || am.Initiator != bm.Initiator ||
			am.NumProcs != bm.NumProcs || len(am.Windows) != len(bm.Windows) {
			return false
		}
		for i := range am.Windows {
			if len(am.Windows[i]) != len(bm.Windows[i]) {
				return false
			}
			for k := range am.Windows[i] {
				if am.Windows[i][k] != bm.Windows[i][k] {
					return false
				}
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

func TestRoundTripEveryMessageType(t *testing.T) {
	for _, p := range samples(t) {
		data, err := Encode(p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode %T: %v", p, err)
		}
		if !payloadsEqual(p, got) {
			t.Fatalf("round trip of %T changed the message:\n  sent %#v\n  got  %#v", p, p, got)
		}
		if got.Kind() != p.Kind() {
			t.Fatalf("round trip of %T changed Kind: %q -> %q", p, p.Kind(), got.Kind())
		}
		// A second encode of the decoded message must be byte-identical:
		// the canonical encoding is deterministic (maps sorted by key).
		again, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode %T: %v", p, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("encoding of %T is not canonical", p)
		}
	}
}

func TestTruncatedFramesRejected(t *testing.T) {
	for _, p := range samples(t) {
		data, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		// Every proper prefix must be refused (frame length mismatch), and
		// truncating the body with a fixed-up length must error, not panic.
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				t.Fatalf("%T: truncation to %d of %d bytes decoded successfully", p, cut, len(data))
			}
		}
		for cut := headerLen; cut < len(data); cut++ {
			trunc := append([]byte(nil), data[:cut]...)
			n := cut - 4
			trunc[0], trunc[1], trunc[2], trunc[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
			if _, err := Decode(trunc); err == nil {
				// Some cuts still parse (they only drop ignorable trailing
				// bytes of the last field); a cut inside a required field
				// must not. Distinguish by re-checking with the original:
				// cutting at a field boundary after all known fields is the
				// forward-compatibility contract, not a bug.
				if orig, derr := Decode(data); derr != nil || !payloadsEqual(orig, mustDecode(t, trunc)) {
					t.Fatalf("%T: truncated body (%d of %d bytes) decoded to a different message", p, cut, len(data))
				}
			}
		}
	}
}

func mustDecode(t *testing.T, data []byte) simnet.Payload {
	t.Helper()
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGarbageRejected(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0xff, 0xff, 0xff, 0xff, 1, 1},   // length prefix beyond MaxFrame
		{2, 0, 0, 0, Version, 200},       // unknown kind
		{2, 0, 0, 0, 99, byte(kindDone)}, // wrong version
		{1, 0, 0, 0, Version},            // length below minimum
		bytes.Repeat([]byte{0x5a}, 64),   // noise
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Fatalf("case %d: garbage frame decoded successfully", i)
		}
	}
	// Deterministic pseudo-random noise: decode must never panic and, for
	// frames that happen to parse, re-encoding must work.
	rnd := uint64(1)
	buf := make([]byte, 512)
	for trial := 0; trial < 2000; trial++ {
		for i := range buf {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			buf[i] = byte(rnd >> 56)
		}
		n := int(rnd % uint64(len(buf)))
		if p, err := Decode(buf[:n]); err == nil {
			if _, err := Encode(p); err != nil {
				t.Fatalf("decoded garbage is not re-encodable: %v", err)
			}
		}
	}
}

// TestUnknownTrailingFieldIgnored is the cross-version contract: a newer
// peer may append fields to any message body, and this decoder reads the
// fields it knows and ignores the rest.
func TestUnknownTrailingFieldIgnored(t *testing.T) {
	for _, p := range samples(t) {
		data, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		extended := append([]byte(nil), data...)
		extended = append(extended, 0xde, 0xad, 0xbe, 0xef, 0x42) // a "new field"
		n := len(extended) - 4
		extended[0], extended[1], extended[2], extended[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		got, err := Decode(extended)
		if err != nil {
			// The Routed wrapper is the one place trailing bytes belong to
			// the inner payload, which itself ignores them — so even there
			// the decode must succeed.
			t.Fatalf("%T: decode with unknown trailing field failed: %v", p, err)
		}
		if !payloadsEqual(p, got) {
			t.Fatalf("%T: unknown trailing field changed the decoded message", p)
		}
	}
}

func TestDecodeFrameStreams(t *testing.T) {
	// Frames concatenate cleanly: DecodeFrame consumes exactly one.
	var stream []byte
	var sent []simnet.Payload
	for _, p := range samples(t) {
		var err error
		stream, err = AppendFrame(stream, p)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, p)
	}
	for _, want := range sent {
		p, n, err := DecodeFrame(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !payloadsEqual(want, p) {
			t.Fatalf("streamed frame decoded to %#v, want %#v", p, want)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(stream))
	}
}

func TestEncodeRefusesUnknownPayload(t *testing.T) {
	if _, err := Encode(unknownPayload{}); err == nil {
		t.Fatal("encoding an unknown payload type succeeded")
	}
	if _, err := Encode(core.NewRouted(1, 2, 3, unknownPayload{})); err == nil {
		t.Fatal("encoding a routed unknown payload succeeded")
	}
	if _, err := Encode(core.Routed{}); err == nil {
		t.Fatal("encoding the zero Routed (no header) succeeded")
	}
}

type unknownPayload struct{}

func (unknownPayload) Kind() string   { return "test.unknown" }
func (unknownPayload) SizeBytes() int { return 0 }

func TestSpecialFloatValues(t *testing.T) {
	// Infinities survive (NaN is excluded: the protocol never produces it
	// and NaN != NaN would poison equality checks downstream).
	m := core.EnrollAck{Job: "inf", Member: 1, Surplus: math.Inf(1), Power: math.Inf(-1)}
	got := mustDecode(t, mustEncode(t, m)).(core.EnrollAck)
	if !math.IsInf(got.Surplus, 1) || !math.IsInf(got.Power, -1) {
		t.Fatalf("infinities mangled: %#v", got)
	}
}

func mustEncode(t *testing.T, p simnet.Payload) []byte {
	t.Helper()
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInvalidGraphOnWireRejected(t *testing.T) {
	// A commit frame whose graph has a cycle must be refused by the
	// validating decode, not enter the scheduler.
	var e enc
	e.b = append(e.b, 0, 0, 0, 0)
	e.u8(Version)
	e.kind(kindCommit)
	e.str("jX@0")
	e.varint(0)  // initiator
	e.varint(0)  // proc
	e.varint(0)  // code bytes
	e.bool(true) // graph present
	e.str("cyclic")
	e.f64(0)
	e.f64(10)
	e.uvarint(2) // tasks
	e.varint(1)
	e.f64(1)
	e.str("")
	e.varint(2)
	e.f64(1)
	e.str("")
	e.uvarint(2) // edges: 1->2 and 2->1
	e.varint(1)
	e.varint(2)
	e.f64(0)
	e.varint(2)
	e.varint(1)
	e.f64(0)
	e.uvarint(0) // task sites
	n := len(e.b) - 4
	e.b[0], e.b[1], e.b[2], e.b[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	if _, err := Decode(e.b); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic graph decode: err=%v, want cycle rejection", err)
	}
}
