package wire

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/txn"
	"repro/internal/dag"
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
			TaskSites: map[dag.TaskID]graph.NodeID{1: 7, 2: 2, 3: 7}}},
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
