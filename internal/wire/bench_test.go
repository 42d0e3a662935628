package wire

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/core/txn"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// benchPayloads is a small mix of the codec's traffic shapes: the routed
// hop-wrapper around a short control message (the dominant frame on real
// topologies), a mid-size enroll-ack with distance entries, and a commit
// carrying a job graph (the largest legitimate frame).
func benchPayloads(tb testing.TB) []struct {
	name string
	p    simnet.Payload
} {
	tb.Helper()
	return []struct {
		name string
		p    simnet.Payload
	}{
		{"routed-enroll", core.NewRouted(1, 2, 20,
			core.EnrollReq{Job: "j1@0", Initiator: 0, Window: 3.5})},
		{"enroll-ack", core.EnrollAck{Job: "j3@7", Member: 2, Surplus: 0.875, Power: 2,
			Dists: []txn.DistEntry{{Dest: 0, Dist: 0.05}, {Dest: 9, Dist: 1.5}}}},
		{"commit-graph", core.CommitMsg{Job: "j3@7", Initiator: 7, Proc: 1, CodeBytes: 768,
			Graph:     testGraph(tb),
			TaskSites: []graph.NodeID{7, 2, 7}}},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, bc := range benchPayloads(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(bc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendFrame is the zero-allocation contract of the encode path:
// with a warm reused buffer, framing a payload must not allocate at all.
func BenchmarkAppendFrame(b *testing.B) {
	for _, bc := range benchPayloads(b) {
		b.Run(bc.name, func(b *testing.B) {
			buf, err := Encode(bc.p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = AppendFrame(buf[:0], bc.p)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, bc := range benchPayloads(b) {
		b.Run(bc.name, func(b *testing.B) {
			frame, err := Encode(bc.p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAppendFrameNoAllocs pins the zero-allocation contract as a test so it
// fails fast in `go test` rather than only drifting in benchmark numbers.
// The commit-graph payload is excluded: encoding a graph walks dag accessor
// methods that build fresh slices, which is the job-submission path, not
// the steady-state message path.
func TestAppendFrameNoAllocs(t *testing.T) {
	for _, bc := range benchPayloads(t)[:2] {
		payload := bc.p
		buf, err := Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			var e error
			buf, e = AppendFrame(buf[:0], payload)
			if e != nil {
				t.Fatal(e)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendFrame with warm buffer allocated %v times per op, want 0", bc.name, allocs)
		}
	}
}

// routedEnrollAck is the routed hop-wrapper around a mid-size enroll-ack:
// the frame the codec and stream allocation pins below are measured on.
func routedEnrollAck() simnet.Payload {
	return core.NewRouted(1, 2, 20, core.EnrollAck{
		Job: "j3@7", Member: 2, Surplus: 0.875, Power: 2,
		Dists: []txn.DistEntry{{Dest: 0, Dist: 0.05}, {Dest: 9, Dist: 1.5}},
	})
}

// TestCodecAllocs pins the codec's per-message allocations on a routed
// enroll-ack: Encode allocates only the frame it returns, and Decode no
// more than the 5 allocations of the payload it materializes.
func TestCodecAllocs(t *testing.T) {
	p := routedEnrollAck()
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	encode := testing.AllocsPerRun(100, func() {
		if _, err := Encode(p); err != nil {
			t.Fatal(err)
		}
	})
	if encode != 1 {
		t.Errorf("Encode allocates %v per message, want 1 (the frame)", encode)
	}
	decode := testing.AllocsPerRun(100, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if decode > 5 {
		t.Errorf("Decode allocates %v per routed enroll-ack, want at most 5", decode)
	}
}

// TestStreamAllocs pins both sides of the stream at zero allocations in
// steady state: FrameReader.Next reads into the connection's grown arena,
// and WriteBatch hands a batch to one vectored write through reused
// net.Buffers scratch, without a coalescing copy.
func TestStreamAllocs(t *testing.T) {
	frame, err := Encode(routedEnrollAck())
	if err != nil {
		t.Fatal(err)
	}
	const repeat = 64
	stream := bytes.Repeat(frame, repeat)
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	read := 0
	next := func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if read++; read%repeat == 0 {
			rd.Reset(stream)
			fr.Reset(rd)
		}
	}
	next() // the first frame grows the arena
	if allocs := testing.AllocsPerRun(500, next); allocs != 0 {
		t.Errorf("FrameReader.Next allocates %v per frame, want 0", allocs)
	}

	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = frame
	}
	var scratch net.Buffers
	write := func() {
		if err := WriteBatch(io.Discard, &scratch, batch); err != nil {
			t.Fatal(err)
		}
	}
	write() // the first batch grows the scratch
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("WriteBatch allocates %v per batch, want 0", allocs)
	}
}
