package wire

import (
	"bytes"
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
	// Layouts Version 4 retired: a table-chunk frame (the kind after
	// region-digest, now unknown) and a join-ack body still carrying
	// Version 3's trailing table and chunk count (dropped as unknown fields).
	f.Add([]byte{6, 0, 0, 0, Version, byte(kindRegionDigest + 1), 11, 4, 6, 0})
	ack, err := Encode(membership.JoinAck{Inc: 6, Epoch: 11})
	if err != nil {
		f.Fatal(err)
	}
	ack = append(ack, 0, 6)
	ack[0] += 2
	f.Add(ack)
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
