package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/txn"
	"repro/internal/graph"
	"repro/internal/joblog"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/schedule"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// MicroBench is one micro-benchmark row of the suite report: the hot-path
// cost model the ROADMAP's zero-allocation item is tracked by. AllocsPerOp
// is deterministic for a given Go release and gated exactly by
// CompareReports; NsPerOp and BytesPerOp are recorded for trend reading but
// never gated (wall time is hardware).
type MicroBench struct {
	Name        string  `json:"name"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// RunMicroBenches measures the declared hot paths — the wire codec, the
// DES event kernel, a message hop through the DES transport and the protocol
// layer's relay, the deferred-queue replay, the routing bootstrap's table
// merge and landmark relaxation, the reservation-plan admit path, and the
// job log's restart recovery per decided job — with
// the testing package's benchmark driver. The cases mirror the //lint:hotpath roots the
// hotalloc analyzer polices, so the static gate (no unjustified allocation
// reachable from a root) and the dynamic gate (allocs/op pinned in
// BENCH_suite.json) watch the same code.
func RunMicroBenches() []MicroBench {
	return []MicroBench{
		micro("wire/encode", benchWireEncode),
		micro("wire/encode-arena", benchWireEncodeArena),
		micro("wire/append-frame", benchWireAppendFrame),
		micro("wire/decode", benchWireDecode),
		micro("wire/read-frame", benchWireReadFrame),
		micro("wire/write-batch", benchWireWriteBatch),
		micro("graph/partition", benchGraphPartition),
		micro("routing/merge", benchRoutingMerge),
		micro("hier/handle-ad", benchHierHandleAd),
		micro("sim/event-loop", benchKernelEventLoop(0)),
		micro("sim/par-event-loop", benchKernelEventLoop(1)),
		micro("simnet/des-send", benchDESSend),
		micro("core/relay-hop", benchRelayHop),
		micro("core/unlock-replay", benchUnlockReplay),
		micro("schedule/admit-reject", benchAdmitReject),
		micro("schedule/admit-accept", benchAdmitAccept),
		micro("joblog/recover", benchJoblogRecover),
	}
}

func micro(name string, fn func(*testing.B)) MicroBench {
	r := testing.Benchmark(fn)
	return MicroBench{
		Name:        name,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		NsPerOp:     float64(r.NsPerOp()),
	}
}

// microPayload is the codec benchmark's frame: the routed hop-wrapper
// around an enroll-ack, a realistic mid-size steady-state message.
func microPayload() simnet.Payload {
	return core.NewRouted(1, 2, 20, core.EnrollAck{
		Job: "j3@7", Member: 2, Surplus: 0.875, Power: 2,
		Dists: []txn.DistEntry{{Dest: 0, Dist: 0.05}, {Dest: 9, Dist: 1.5}},
	})
}

func benchWireEncode(b *testing.B) {
	p := microPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(p); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireEncodeArena(b *testing.B) {
	p := microPayload()
	var a wire.EncodeArena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Encode(p); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireAppendFrame(b *testing.B) {
	p := microPayload()
	buf, err := wire.Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = wire.AppendFrame(buf[:0], p)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireDecode(b *testing.B) {
	frame, err := wire.Encode(microPayload())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireReadFrame measures the transport's per-frame stream read: the
// length prefix plus the frame body into the connection's reusable arena.
// Steady state must be allocation-free — the arena grows once to the
// largest frame and is reused, which is the whole point of pooling it.
func benchWireReadFrame(b *testing.B) {
	frame, err := wire.Encode(microPayload())
	if err != nil {
		b.Fatal(err)
	}
	const repeat = 64
	stream := bytes.Repeat(frame, repeat)
	rd := bytes.NewReader(stream)
	fr := wire.NewFrameReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.Next(); err != nil {
			b.Fatal(err)
		}
		if i%repeat == repeat-1 {
			rd.Reset(stream)
			fr.Reset(rd)
		}
	}
}

// benchWireWriteBatch measures the writer's vectored batch delivery: a
// same-tick batch of frames handed to one writev, net.Buffers scratch
// reused. Steady state must be allocation-free — no coalescing copy.
func benchWireWriteBatch(b *testing.B) {
	frame, err := wire.Encode(microPayload())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = frame
	}
	var scratch net.Buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.WriteBatch(io.Discard, &scratch, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraphPartition measures the contiguity-preserving partitioner the
// parallel kernel and the hierarchical region layout both build on: a
// 1,024-site random topology split 32 ways. Allocations are proportional
// to the graph alone (no per-iteration growth), so the pinned count guards
// the partitioner against accidental quadratic scratch.
func benchGraphPartition(b *testing.B) {
	topo := graph.RandomConnected(1024, 4, StdDelays, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.Partition(32)
	}
}

// benchRoutingMerge measures one bootstrap merge at its steady state: a
// neighbor's snapshot folded into a full radius-3 table of a 64-site random
// topology (the des_std PCS). Once both backing arrays have reached the
// table's size the merge allocates nothing.
func benchRoutingMerge(b *testing.B) {
	topo := graph.RandomConnected(64, 4, StdDelays, 1)
	tables, _, err := routing.Build(topo, routing.RoundsForRadius(3))
	if err != nil {
		b.Fatal(err)
	}
	t := tables[0].Clone()
	nbr := topo.Neighbors(0)[0]
	snap := tables[nbr.To].Snapshot()
	t.Merge(nbr.To, nbr.Delay, snap)
	t.Merge(nbr.To, nbr.Delay, snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Merge(nbr.To, nbr.Delay, snap)
	}
}

// benchHierHandleAd measures one improving landmark advertisement on a
// 256-site layout: the vector line is replaced in place and the ad re-sent
// to every neighbor, boxed once — one allocation per op whatever the
// degree. (A non-improving ad, the flood's usual case, allocates nothing;
// the hier package's tests pin that.)
func benchHierHandleAd(b *testing.B) {
	topo := graph.RandomConnected(256, 4, StdDelays, 1)
	lay, err := hier.NewLayout(topo)
	if err != nil {
		b.Fatal(err)
	}
	nbrs := topo.Neighbors(0)
	boot := hier.NewBootstrap(0, nbrs, lay, func(graph.NodeID, simnet.Payload) {})
	r := (lay.Region(0) + 1) % lay.Regions
	ad := hier.LandmarkAd{Region: r, Landmark: lay.Landmarks[r], Dist: float64(b.N) + 1, Hops: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad.Dist--
		boot.HandleAd(nbrs[0].To, ad)
	}
}

// benchKernelEventLoop drives a kernel (workers as in
// core.Config.KernelWorkers) with a self-rescheduling tick: one event fired
// per op, pool-recycled nodes, a single closure. Steady state must be
// allocation-free on the serial engine and on the parallel kernel at one
// partition (the in-line serial fast path every partition's window loop
// shares; its pool-recycle and shrink logic mirror the serial engine's). A
// P=NumCPU point would not be machine-independent (allocs vary with worker
// count and core count), so multicore throughput is tracked by the report's
// kernel section instead.
func benchKernelEventLoop(workers int) func(*testing.B) {
	return func(b *testing.B) {
		k, err := simnet.NewKernel(graph.New(4), workers)
		if err != nil {
			b.Fatal(err)
		}
		var tick func()
		tick = func() { k.Schedule(0, 0, k.NowOf(0)+1, tick) }
		k.Schedule(0, 0, 1, tick)
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.RunUntil(float64(b.N)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDESSend measures the DES's unit cost, one link traversal: DES.Send of
// a boxed payload plus the Step that delivers it, as a two-site ping-pong
// (each delivery sends the next message). The message rides the pooled event
// node, so steady state is allocation-free.
func benchDESSend(b *testing.B) {
	topo := graph.Line(2, graph.UnitDelay, 1)
	k, err := simnet.NewKernel(topo, 0)
	if err != nil {
		b.Fatal(err)
	}
	d := simnet.NewDES(k, topo)
	p := microPayload()
	for id := graph.NodeID(0); id < 2; id++ {
		d.Attach(id, func(from graph.NodeID, p simnet.Payload) {
			if err := d.Send(id, from, p); err != nil {
				b.Fatal(err)
			}
		})
	}
	if err := d.Send(0, 1, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.RunUntil(float64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// benchRelayHop measures one relayed hop of a routed protocol message on a
// 3-site line (core.NewRelayHop): handle, forward, Send, Step. The routed
// handle is forwarded as it is, so steady state is allocation-free.
func benchRelayHop(b *testing.B) {
	step, err := core.NewRelayHop(0)
	if err != nil {
		b.Fatal(err)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// unlockReplayBatch is how many deferred enrollments one unlock of
// benchUnlockReplay replays.
const unlockReplayBatch = 256

// benchUnlockReplay measures the deferred queue's replay (core.NewUnlockReplay):
// one op is one deferred enrollment looked at by an unlock whose first item
// re-locks the site, in passes of unlockReplayBatch. Requeueing a value
// allocates nothing; the one acknowledgement a pass sends (2 allocations,
// pinned exactly by the core package's test) is under 1/100 per op.
func benchUnlockReplay(b *testing.B) {
	step, err := core.NewUnlockReplay(unlockReplayBatch)
	if err != nil {
		b.Fatal(err)
	}
	step()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += unlockReplayBatch {
		step()
	}
}

// benchAdmitReject measures the admission control fast-fail: a warmed plan
// refusing an infeasible batch. This is the per-message cost of saying no
// and must be allocation-free.
func benchAdmitReject(b *testing.B) {
	p := schedule.NewNonPreemptive()
	full := []schedule.Request{{Job: "a", Task: 1, Release: 0, Deadline: 10, Duration: 10}}
	tk, ok := p.Admit(0, full)
	if !ok {
		b.Fatal("setup admission rejected")
	}
	if err := p.Commit(tk); err != nil {
		b.Fatal(err)
	}
	reqs := []schedule.Request{
		{Job: "b", Task: 1, Release: 0, Deadline: 10, Duration: 5},
		{Job: "b", Task: 2, Release: 0, Deadline: 10, Duration: 5},
	}
	if _, ok := p.Admit(0, reqs); ok {
		b.Fatal("infeasible batch admitted")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Admit(0, reqs); ok {
			b.Fatal("infeasible batch admitted")
		}
	}
}

// recoverJobs is how many decided jobs the log benchJoblogRecover reads
// holds.
const recoverJobs = 1000

// benchJoblogRecover measures the gateway's restart: one op is one decided
// job (submitted with a 640-byte graph, forwarded, decided) of a log that
// joblog.Recover reads back, recoverJobs jobs at a time. A job costs what
// the Replay keeps of it; the file, the chunks and the workers are shared
// by the whole log and come to well under one allocation per job.
func benchJoblogRecover(b *testing.B) {
	dir, err := os.MkdirTemp("", "joblog-recover")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wal")
	l, _, err := joblog.Open(path, joblog.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	graph := json.RawMessage(`{"name":"` + strings.Repeat("g", 640-len(`{"name":""}`)) + `"}`)
	for i := 1; i <= recoverJobs; i++ {
		id, cluster := fmt.Sprintf("g%d", i), fmt.Sprintf("p%d@0", i)
		if err := l.AppendNoWait(
			joblog.Record{Type: joblog.TypeSubmitted, ID: id, Seq: uint64(i), Tenant: "acme",
				ClientKey: fmt.Sprintf("key-%d", i), Deadline: 100, Graph: graph},
			joblog.Record{Type: joblog.TypeForwarded, ID: id, Tenant: "acme", ClusterID: cluster},
			joblog.Record{Type: joblog.TypeDecided, ID: id, Tenant: "acme", ClusterID: cluster,
				Outcome: "accepted-local", DecisionLatency: 1},
		); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += recoverJobs {
		l, _, err := joblog.Recover(path, joblog.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAdmitAccept measures a successful admission (ticket handed out, not
// committed, so the plan stays in steady state). The accept path allocates
// exactly the ticket it returns.
func benchAdmitAccept(b *testing.B) {
	p := schedule.NewNonPreemptive()
	reqs := []schedule.Request{
		{Job: "b", Task: 1, Release: 0, Deadline: 100, Duration: 5},
		{Job: "b", Task: 2, Release: 0, Deadline: 100, Duration: 5},
	}
	if _, ok := p.Admit(0, reqs); !ok {
		b.Fatal("feasible batch rejected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Admit(0, reqs); !ok {
			b.Fatal("feasible batch rejected")
		}
	}
}
