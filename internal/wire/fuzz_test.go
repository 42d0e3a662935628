package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core/membership"
)

// FuzzWireRoundTrip drives the decoder with arbitrary bytes: it must never
// panic, and any frame it accepts must re-encode canonically — encode,
// decode and encode again yield byte-identical frames. (Raw input bytes are
// not compared: trailing unknown-field bytes are dropped by design.)
func FuzzWireRoundTrip(f *testing.F) {
	for _, p := range samples(f) {
		data, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, Version, byte(kindDone)})
	// Layouts Version 4 retired: a table-chunk frame (tag 20, an unknown
	// kind) and a join-ack body still carrying Version 3's trailing table
	// and chunk count (dropped as unknown fields).
	f.Add([]byte{6, 0, 0, 0, Version, 20, 11, 4, 6, 0})
	ack, err := Encode(membership.JoinAck{Inc: 6, Epoch: 11})
	if err != nil {
		f.Fatal(err)
	}
	ack = append(ack, 0, 6)
	ack[0] += 2
	f.Add(ack)
	for _, frame := range retiredFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // malformed input refused: fine
		}
		first, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", p, err)
		}
		q, err := Decode(first)
		if err != nil {
			t.Fatalf("canonical encoding of %T does not decode: %v", p, err)
		}
		second, err := Encode(q)
		if err != nil {
			t.Fatalf("second re-encode of %T failed: %v", p, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding of %T is not canonical:\n  %x\n  %x", p, first, second)
		}
	})
}

// retiredFrames are frames of the kinds Version 5 retired, stamped with the
// current Version: a landmark advertisement (tag 18) and a region digest
// (tag 19), each with a zero-value and a max-field body as Version 4 laid
// them out.
func retiredFrames(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, h := range []string{
		"0d00000004120000000000000000000000",
		"0e000000041222840700000000000009400e",
		"0400000004130000",
		"0a00000004130802500100520301",
	} {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		frame[4] = Version
		out = append(out, frame)
	}
	return out
}

// TestRetiredKindsRefused: a frame of a retired kind is refused as an
// unknown kind, not decoded as whatever now holds its tag.
func TestRetiredKindsRefused(t *testing.T) {
	for _, frame := range retiredFrames(t) {
		p, err := Decode(frame)
		if err == nil || !strings.Contains(err.Error(), "unknown message kind") {
			t.Fatalf("frame %x decoded to %v, %v; want an unknown-kind refusal", frame, p, err)
		}
	}
}
