package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestDESSendStepAllocatesNothing pins the DES's unit cost: one Send of an
// already-boxed payload plus the Step that delivers it allocates nothing,
// on the serial engine and on the parallel kernel's in-line partition. The
// message rides the pooled event node; there is no closure per send.
func TestDESSendStepAllocatesNothing(t *testing.T) {
	topo := lineTopo()
	onEveryKernel(t, topo, []int{1}, func(t *testing.T, k Kernel) {
		d := NewDES(k, topo)
		delivered := 0
		for id := 0; id < topo.Len(); id++ {
			d.Attach(graph.NodeID(id), func(graph.NodeID, Payload) { delivered++ })
		}
		var p Payload = testMsg{kind: "test.hop", size: 8}
		hop := func() {
			if err := d.Send(0, 1, p); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
		hop() // first use grows the heap, the pool and the stats shard's kind table
		if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
			t.Fatalf("Send + Step allocates %v per hop, want 0", allocs)
		}
		if delivered != 202 {
			t.Fatalf("delivered %d of 202 hops", delivered)
		}
	})
}

// refStats is the previous Stats.Record/RecordEdge, kept as the reference
// the rewritten counters are checked against: Kind and SizeBytes evaluated
// per use, control traffic classified by prefix on every call.
type refStats struct {
	messages, bytes, controlMsgs, controlB, crossMsgs int64
	byKind                                            map[string]int64
	boundary                                          func(from, to graph.NodeID) bool
}

func (s *refStats) record(p Payload) {
	s.messages++
	s.bytes += int64(p.SizeBytes())
	s.byKind[p.Kind()]++
	if strings.HasPrefix(p.Kind(), "member.") || strings.HasPrefix(p.Kind(), "pcs.") {
		s.controlMsgs++
		s.controlB += int64(p.SizeBytes())
	}
}

func (s *refStats) recordEdge(from, to graph.NodeID, p Payload) {
	s.record(p)
	if s.boundary != nil && s.boundary(from, to) {
		s.crossMsgs++
	}
}

func (s *refStats) String() string {
	out := fmt.Sprintf("msgs=%d bytes=%d", s.messages, s.bytes)
	kinds := make([]string, 0, len(s.byKind))
	for k := range s.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		out += fmt.Sprintf(" %s=%d", k, s.byKind[k])
	}
	return out
}

// TestStatsMatchesReference: for random sequences of Record, RecordEdge and
// Reset over sharded counters, every read agrees with the reference.
func TestStatsMatchesReference(t *testing.T) {
	kinds := []string{"rtds.enroll", "rtds.validate", "member.heartbeat", "pcs.table", "pcsx", "membership", ""}
	boundary := func(from, to graph.NodeID) bool { return (from < 2) != (to < 2) }
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStats()
		shards := []*Stats{s, s.Shard(), s.Shard()}
		ref := &refStats{byKind: map[string]int64{}}
		if seed%2 == 0 {
			s.SetBoundary(boundary)
			ref.boundary = boundary
		}
		for op := 0; op < 2000; op++ {
			p := testMsg{kind: kinds[rng.Intn(len(kinds))], size: rng.Intn(500)}
			sh := shards[rng.Intn(len(shards))]
			switch r := rng.Intn(100); {
			case r < 45:
				sh.Record(p)
				ref.record(p)
			case r < 98:
				from, to := graph.NodeID(rng.Intn(4)), graph.NodeID(rng.Intn(4))
				sh.RecordEdge(from, to, p)
				ref.recordEdge(from, to, p)
			default:
				s.Reset()
				bd := ref.boundary
				*ref = refStats{byKind: map[string]int64{}, boundary: bd}
			}
			if op%97 != 0 {
				continue
			}
			if s.Messages() != ref.messages || s.Bytes() != ref.bytes ||
				s.ControlMessages() != ref.controlMsgs || s.ControlBytes() != ref.controlB ||
				s.CrossMessages() != ref.crossMsgs {
				t.Fatalf("seed %d op %d: totals diverge: got %d/%d/%d/%d/%d, want %+v", seed, op,
					s.Messages(), s.Bytes(), s.ControlMessages(), s.ControlBytes(), s.CrossMessages(), ref)
			}
			if !reflect.DeepEqual(s.ByKind(), ref.byKind) {
				t.Fatalf("seed %d op %d: ByKind %v, want %v", seed, op, s.ByKind(), ref.byKind)
			}
			if s.String() != ref.String() {
				t.Fatalf("seed %d op %d: String %q, want %q", seed, op, s.String(), ref.String())
			}
		}
	}
}

// TestStatsConcurrentRecord: shards record in parallel (the explicit unlock
// must cover every path).
func TestStatsConcurrentRecord(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		sh := s.Shard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sh.RecordEdge(0, 1, testMsg{kind: "rtds.enroll", size: 3})
				s.Record(testMsg{kind: "member.heartbeat", size: 1})
			}
		}()
	}
	wg.Wait()
	if got := s.Messages(); got != 8000 {
		t.Fatalf("messages %d, want 8000", got)
	}
	if got := s.ControlMessages(); got != 4000 {
		t.Fatalf("control messages %d, want 4000", got)
	}
}
