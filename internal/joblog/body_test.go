package joblog

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// zero8 is a float64 zero, as a body stores it.
const zero8 = "\x00\x00\x00\x00\x00\x00\x00\x00"

// decidedBody is a binary body written out by hand, field by field.
var decidedBody = []byte("\x01\x03" + // version 1, decided
	"\x02g7" + "\x00" + "\x04acme" + "\x00" + // ID, Seq, Tenant, ClientKey
	zero8 + zero8 + "\x00" + // At, Deadline, Graph
	"\x04j1@0" + "\x08rejected" + // ClusterID, Outcome
	"\x00\x00\x00\x00\x00\x00\xf8\x3f") // DecisionLatency 1.5

// Hand-written bodies that pass their CRC and are not records: recovery
// refuses each with ErrCorrupt, agrees with the reference, and does not
// panic.
func TestBodyRejects(t *testing.T) {
	var got Record
	if err := decodeBody(decidedBody, &got); err != nil {
		t.Fatalf("the hand-written body does not decode: %v", err)
	}
	want := Record{Type: TypeDecided, ID: "g7", Tenant: "acme", ClusterID: "j1@0", Outcome: "rejected", DecisionLatency: 1.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the hand-written body decodes to %+v, want %+v", got, want)
	}

	cases := []struct {
		name string
		body string
	}{
		{"unknown version byte", "\x02" + string(decidedBody[1:])},
		{"unknown type byte", "\x01\x09" + string(decidedBody[2:])},
		{"type byte zero", "\x01\x00" + string(decidedBody[2:])},
		{"version byte alone", "\x01"},
		{"length past the body", "\x01\x02\x09g7"},
		{"length past any body", "\x01\x02\xff\xff\xff\xff\xff\xff\xff\xff\x7f"},
		{"varint over 64 bits", "\x01\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
		{"truncated float", string(decidedBody[:len(decidedBody)-3])},
		{"trailing bytes", string(decidedBody) + "\x00"},
	}
	dir := t.TempDir()
	valid, err := appendFrame(nil, rec(TypeSubmitted, "g1", 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if err := decodeBody([]byte(tc.body), &Record{}); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
		image := append(append([]byte(nil), valid...), rawFrame([]byte(tc.body))...)
		if _, _, err := replayBytes(t, dir, image, chunkBytes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: replay returned %v, want ErrCorrupt", tc.name, err)
		}
		agree(t, dir, tc.name, image)
	}
}

// Any Record the writer takes comes back from recovery as it went in: empty
// and large strings, zero and extreme numbers, and graphs whose whitespace
// is kept byte for byte. bodySize is the encoded length every time.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	str := func() string {
		n := rng.Intn(12)
		switch rng.Intn(6) {
		case 0:
			return ""
		case 1:
			n = 200 + rng.Intn(20000)
		}
		b := make([]byte, n)
		rng.Read(b) // any bytes: the layout stores lengths, not delimiters
		return string(b)
	}
	graphs := []string{
		"",
		`{"name":"g"}`,
		" {\n\t\"name\" : \"g\" ,\r\n  \"tasks\" : [ {\"id\": 1, \"complexity\": 5.000} ] ,\"edges\":[]}\n ",
		`{"name":"` + strings.Repeat(" ", 3000) + `"}` + strings.Repeat("\n", 300),
	}
	float := func() float64 {
		return []float64{0, 1.5, -2.25, rng.NormFloat64() * 1e6, math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, math.MaxFloat64}[rng.Intn(8)]
	}
	var want []Record
	var data []byte
	for i := 0; i < 400; i++ {
		r := Record{
			Type: recordTypes[rng.Intn(len(recordTypes))], ID: str(),
			Seq:    []uint64{0, 1, 127, 128, rng.Uint64(), math.MaxUint64}[rng.Intn(6)],
			Tenant: str(), ClientKey: str(), At: float(), Deadline: float(),
			ClusterID: str(), Outcome: str(), DecisionLatency: float(),
		}
		if g := graphs[rng.Intn(len(graphs))]; g != "" {
			r.Graph = json.RawMessage(g)
		}
		if got := len(appendBody(nil, r)); got != bodySize(r) {
			t.Fatalf("record %d: body of %d bytes, bodySize says %d", i, got, bodySize(r))
		}
		var err error
		if data, err = appendFrame(data, r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	dir := t.TempDir()
	got, _, err := replayBytes(t, dir, data, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records recovered, %d written", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d recovered as %+v, written as %+v", i, got[i], want[i])
		}
	}
	agree(t, dir, "round trip", data)
}

// MaxRecord bounds the body exactly, and CheckSize and the writer draw the
// line at the same byte.
func TestCheckSizeIsTheAppendBound(t *testing.T) {
	r := Record{Type: TypeSubmitted, ID: "g1", Seq: 1, Tenant: "acme"}
	r.Graph = make(json.RawMessage, MaxRecord-bodySize(r))
	r.Graph = r.Graph[:len(r.Graph)-(bodySize(r)-MaxRecord)] // its length prefix is longer than an empty graph's
	if n := bodySize(r); n != MaxRecord {
		t.Fatalf("set-up: body of %d bytes, want MaxRecord", n)
	}
	if err := CheckSize(r); err != nil {
		t.Fatalf("a body of exactly MaxRecord bytes: %v", err)
	}
	if _, err := appendFrame(nil, r); err != nil {
		t.Fatalf("a body of exactly MaxRecord bytes: %v", err)
	}
	r.Graph = append(r.Graph, ' ')
	if err := CheckSize(r); err == nil {
		t.Fatal("CheckSize passed a body one byte over MaxRecord")
	}
	if _, err := appendFrame(nil, r); err == nil {
		t.Fatal("appendFrame framed a body one byte over MaxRecord")
	}
	if _, err := appendFrame(nil, Record{Type: "started", ID: "g1"}); err == nil {
		t.Fatal("appendFrame framed a record type that has no type byte")
	}
}

// Framing a record into a buffer that has the room allocates nothing.
func TestAppendFrameDoesNotAllocate(t *testing.T) {
	r := rec(TypeSubmitted, "g1", 1)
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = appendFrame(buf[:0], r); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("appendFrame into a buffer with room: %v allocs, want 0", allocs)
	}
}

// Decoding a forwarded or decided record allocates nothing, its strings
// borrowed from the body, and the copy Open hands out allocates its
// non-empty strings and nothing else: recovery reads three records for
// every job it has ever logged.
func TestDecodeAllocatesOnlyStrings(t *testing.T) {
	for _, tc := range []struct {
		rec  Record
		want float64
	}{
		{Record{Type: TypeForwarded, ID: "g17", Tenant: "acme", ClusterID: "j3@7"}, 3},
		{Record{Type: TypeDecided, ID: "g17", Tenant: "acme", ClusterID: "j3@7", Outcome: "accepted-local", DecisionLatency: 2.5}, 4},
	} {
		t.Run(string(tc.rec.Type), func(t *testing.T) {
			body := appendBody(nil, tc.rec)
			var got Record
			allocs := testing.AllocsPerRun(200, func() {
				got = Record{}
				if err := decodeBody(body, &got); err != nil {
					panic(err)
				}
			})
			if !reflect.DeepEqual(got, tc.rec) {
				t.Fatalf("decoded %+v, want %+v", got, tc.rec)
			}
			if allocs != 0 {
				t.Errorf("decoding: %v allocs, want 0", allocs)
			}
			var owned Record
			allocs = testing.AllocsPerRun(200, func() { owned = got.clone() })
			if !reflect.DeepEqual(owned, tc.rec) {
				t.Fatalf("copied %+v, want %+v", owned, tc.rec)
			}
			if allocs != tc.want {
				t.Errorf("copying: %v allocs, want %v: one per string", allocs, tc.want)
			}
		})
	}
}
