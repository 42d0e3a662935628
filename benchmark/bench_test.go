package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/scheme"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() with -child, and that is this binary.
func TestMain(m *testing.M) {
	flag.Parse()
	if *flagChild != "" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {1200, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1,200 samples: p99 has 12 beyond it and qualifies, p99.9 has 1.
	if b := beyond(1200, 99); b != 12 {
		t.Errorf("beyond(1200, 99) = %d, want 12", b)
	}
	var s sample
	for i := 1; i <= 10; i++ {
		s.add(float64(i))
	}
	if got := s.percentile(90); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
	if got := s.median(); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := quartileSpread(s.v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	if got := growth([]float64{1, 1, 1, 1, 5, 5, 3, 3}); got != 3 {
		t.Errorf("growth = %v, want 3", got)
	}
}

// TestOpenLoopCountsStallFromDueTime drives the open-loop scheduler on a fake
// clock: a send that stalls must make the following jobs late, and their
// latency must still be counted from when they were due.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	loop := openLoop{
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d) },
	}
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 100 * ms}
	cost := []time.Duration{1 * ms, 25 * ms, 1 * ms, 1 * ms, 1 * ms} // the second send stalls
	var sentAt, dueAt, doneAt []time.Duration
	loop.run(start, due, func(i int, d time.Time) {
		sentAt = append(sentAt, now.Sub(start))
		dueAt = append(dueAt, d.Sub(start))
		now = now.Add(cost[i])
		doneAt = append(doneAt, now.Sub(start))
	})
	if want := []time.Duration{0, 10 * ms, 35 * ms, 36 * ms, 100 * ms}; !reflect.DeepEqual(sentAt, want) {
		t.Errorf("sent at %v, want %v", sentAt, want)
	}
	if !reflect.DeepEqual(dueAt, due) {
		t.Errorf("due times passed to send %v, want %v", dueAt, due)
	}
	// Job 2 was due at 20ms, went out at 35ms and took 1ms: its latency from
	// the due time is 16ms, of which 15ms is the wait the stall imposed.
	if got := doneAt[2] - dueAt[2]; got != 16*ms {
		t.Errorf("latency of the job behind the stall = %v, want 16ms", got)
	}
	// The generator catches up: the last job goes out on time.
	if sentAt[4] != dueAt[4] {
		t.Errorf("last job sent at %v, due %v", sentAt[4], dueAt[4])
	}
}

// TestPolicyDecoratorsLeaveDESUnchanged: the traced pass wraps the policies
// and records the timeline; the simulation's Summary must not notice.
func TestPolicyDecoratorsLeaveDESUnchanged(t *testing.T) {
	topo, err := graph.Generate(graph.TopoRandom, 16, experiments.StdDelays, 3)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := stdArrivals(16, 150, 0.8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tune func(*core.Config)) core.Summary {
		c, err := scheme.MustGet("rtds").Build(topo, scheme.Config{Tune: tune})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			if err := c.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return *c.Summarize().Core
	}
	plain := run(nil)
	var stats policyStats
	traced := run(func(cc *core.Config) {
		cc.TraceEvents = true
		tracePolicies(cc, &stats)
	})
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("Summary changed under the decorators:\n plain  %+v\n traced %+v", plain, traced)
	}
	if stats.localTest.n() != plain.Submitted {
		t.Errorf("timed %d local tests for %d jobs", stats.localTest.n(), plain.Submitted)
	}
	if stats.enrollSet.n() == 0 {
		t.Error("the sphere decorator was never called")
	}
}

// liveDecisions runs a two-node cluster over loopback TCP, optionally with
// the transport decorator, on jobs whose fate does not hang on timing: loose
// ones any site accepts, and infeasible ones (deadline below the critical
// path) every site rejects.
func liveDecisions(t *testing.T, traced bool) []string {
	t.Helper()
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.1)
	var trs []*wire.NetTransport
	addrs := make(map[graph.NodeID]string)
	for id := 0; id < 2; id++ {
		tr, err := wire.Listen(wire.NetConfig{Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", Scale: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs = append(trs, tr)
		addrs[graph.NodeID(id)] = tr.Addr()
	}
	stats, spans := newTransportStats(), &spanLog{}
	var nodes []*core.Node
	for id, tr := range trs {
		tr.SetPeers(addrs)
		cfg, err := liveConfig(topo)
		if err != nil {
			t.Fatal(err)
		}
		var transport simnet.Transport = tr
		if traced {
			transport = &timedTransport{Transport: tr, site: graph.NodeID(id), stats: stats, spans: spans}
		}
		n, err := core.NewNode(topo, cfg, transport, graph.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, tr := range trs {
		tr.Start()
	}
	for _, n := range nodes {
		n.StartBootstrap()
	}
	for _, n := range nodes {
		if !n.WaitReady(10 * time.Second) {
			t.Fatal("bootstrap did not finish")
		}
		n.Seal()
	}
	chain := func(name string) *dag.Graph {
		return dag.NewBuilder(name).AddTask(1, 5).AddTask(2, 5).AddEdge(1, 2).MustBuild()
	}
	for i := 0; i < 6; i++ {
		deadline := 500.0 // loose: accepted
		if i%2 == 1 {
			deadline = 4 // below the critical path of 10: rejected everywhere
		}
		if _, err := nodes[i%2].Submit(0, chain("c"), deadline); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes {
		for {
			pending := false
			for _, j := range n.JobStatuses() {
				if j.Outcome == core.Pending {
					pending = true
				}
			}
			if !pending {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("jobs still pending after 10s")
			}
			time.Sleep(5 * time.Millisecond)
		}
		for _, j := range n.JobStatuses() {
			accepted := j.Outcome == core.AcceptedLocal || j.Outcome == core.AcceptedDistributed
			out = append(out, j.ID+":"+map[bool]string{true: "accepted", false: "rejected"}[accepted])
		}
	}
	if traced && stats.send.n() == 0 {
		t.Error("the transport decorator saw no Send")
	}
	return out
}

func TestTransportDecoratorLeavesLiveDecisionsUnchanged(t *testing.T) {
	plain := liveDecisions(t, false)
	traced := liveDecisions(t, true)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("decisions changed under the transport decorator:\n plain  %v\n traced %v", plain, traced)
	}
}

// fakeBackend answers with fixed values so the decorator's pass-through can
// be checked.
type fakeBackend struct{}

func (fakeBackend) Submit(at, deadline float64, g json.RawMessage) (string, error) {
	return "j1@0", nil
}
func (fakeBackend) Decisions() (map[string]gateway.BackendDecision, error) {
	return map[string]gateway.BackendDecision{"j1@0": {Outcome: "rejected", Latency: 2}}, nil
}
func (fakeBackend) Stats() (gateway.BackendStats, error) {
	return gateway.BackendStats{DecisionLatencyP99: 7, ReachableSites: 3}, nil
}

func TestBackendDecoratorPassesThrough(t *testing.T) {
	var stats backendStats
	var spans spanLog
	b := &timedBackend{inner: fakeBackend{}, stats: &stats, spans: &spans}
	if id, err := b.Submit(0, 1, nil); err != nil || id != "j1@0" {
		t.Errorf("Submit = %q, %v", id, err)
	}
	if d, err := b.Decisions(); err != nil || d["j1@0"].Outcome != "rejected" || d["j1@0"].Latency != 2 {
		t.Errorf("Decisions = %v, %v", d, err)
	}
	if st, err := b.Stats(); err != nil || st.DecisionLatencyP99 != 7 || st.ReachableSites != 3 {
		t.Errorf("Stats = %+v, %v", st, err)
	}
	if stats.forward.n() != 1 || len(stats.decisions) != 1 || stats.stats.n() != 1 {
		t.Errorf("the decorator recorded %d/%d/%d calls, want 1/1/1", stats.forward.n(), len(stats.decisions), stats.stats.n())
	}
	got := spans.snapshot()
	if len(got) != 2 || got[0].Name != "gateway.forward" || got[0].Job != "j1@0" || got[1].Name != "gateway.poll_decisions" {
		t.Errorf("spans = %+v", got)
	}
}

// ---------------------------------------------------------------------------
// A canned CPU profile, encoded by hand.

type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pbuf) bytesField(field int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

func packed(vals ...uint64) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// cannedProfile builds a profile whose function i+1 is names[i], with one
// location per function, and the given stacks (function ids, leaf first)
// weighted by cpu nanoseconds.
func cannedProfile(names []string, stacks [][]uint64, weights []uint64) []byte {
	var p pbuf
	strs := append([]string{""}, names...)
	for i, st := range stacks {
		var s pbuf
		s.bytesField(1, packed(st...))
		s.bytesField(2, packed(1, weights[i])) // samples/count, cpu/nanoseconds
		p.bytesField(2, s.Bytes())
	}
	for i := range names {
		id := uint64(i + 1)
		var line pbuf
		line.varint(1, id)
		var loc pbuf
		loc.varint(1, id)
		loc.bytesField(4, line.Bytes())
		p.bytesField(4, loc.Bytes())
		var fn pbuf
		fn.varint(1, id)
		fn.varint(2, id) // name: string table index
		p.bytesField(5, fn.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	return p.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	names := []string{
		"runtime.mallocgc",                          // 1
		"repro/internal/core.(*Site).handle",        // 2
		"runtime.gcBgMarkWorker",                    // 3
		"reflect.Value.Field",                       // 4
		"encoding/json.Marshal",                     // 5
		"repro/internal/nodeapi.writeJSON",          // 6
		"internal/poll.(*FD).Write",                 // 7
		"net/http.(*conn).serve",                    // 8
		"fmt.Sprintf",                               // 9
		"main.desChild",                             // 10
		"repro/internal/routing/hier.(*Table).Dist", // 11
		"repro/internal/sim/par.(*Engine).run",      // 12
	}
	stacks := [][]uint64{
		{1, 2},     // an allocation made by core: core
		{3},        // a GC worker: runtime
		{4, 5, 6},  // reflection under json under nodeapi: json
		{7, 8},     // a socket write under the HTTP server: syscall
		{9, 10},    // the harness formatting a string: other
		{11, 2},    // routing/hier called from core: routing
		{1, 12, 2}, // an allocation made by sim/par: sim
	}
	weights := []uint64{30, 10, 20, 25, 15, 40, 60}
	raw := cannedProfile(names, stacks, weights)

	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"raw": raw, "gzip": zipped.Bytes()} {
		p := newCPUProfile()
		if err := p.add(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := metricSet{}
		p.shares(m)
		want := map[string]float64{
			"core": 30, "runtime": 10, "json": 20, "syscall": 25, "other": 15, "routing": 40, "sim": 60,
		}
		sum := 0.0
		for _, l := range cpuLayers {
			got := m["cpu_share."+l]
			sum += got
			if math.Abs(got-want[l]/200) > 1e-12 {
				t.Errorf("%s: cpu_share.%s = %v, want %v", name, l, got, want[l]/200)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v, want 1", name, sum)
		}
	}
	if err := newCPUProfile().add([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// ---------------------------------------------------------------------------

func TestAgree(t *testing.T) {
	mk := func(ratio float64, rates ...float64) *resultSet {
		s := &resultSet{}
		for _, r := range rates {
			s.Records = append(s.Records, &record{
				Workload: wlDesStd, Seed: 1, Seconds: 20, Correct: true,
				E2E: metricSet{"jobs_per_s": r, "guarantee_ratio": ratio},
			})
		}
		return s
	}
	status := func(vs []verdict, metric string) []string {
		var out []string
		for _, v := range vs {
			if v.metric == metric {
				out = append(out, v.status)
			}
		}
		return out
	}
	a := mk(0.6, 1000, 1010, 990)
	if got := status(agree(a, mk(0.6, 1005, 995, 1000)), "jobs_per_s"); !reflect.DeepEqual(got, []string{"agrees"}) {
		t.Errorf("close sets: %v", got)
	}
	if got := status(agree(a, mk(0.6, 700, 705, 695)), "jobs_per_s"); !reflect.DeepEqual(got, []string{"differs"}) {
		t.Errorf("medians 30%% apart: %v", got)
	}
	// Same medians, but one set's own min-max spread is wider than the bound:
	// these runs cannot resolve the metric, and it must not pass.
	if got := status(agree(a, mk(0.6, 1000, 700, 1300)), "jobs_per_s"); !reflect.DeepEqual(got, []string{"unresolved"}) {
		t.Errorf("wide spread: %v", got)
	}
	// An exact count that moves at a fixed seed differs, however little: the
	// medians agree within the bound, the record-by-record comparison does not.
	got := status(agree(a, mk(0.6000001, 1000, 1010, 990)), "guarantee_ratio")
	if !reflect.DeepEqual(got, []string{"agrees", "differs", "differs", "differs"}) {
		t.Errorf("exact count: %v", got)
	}
}

// TestBenchmarkJSON holds the committed BENCHMARK.json to the registry in
// spec.go and to the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(raw))
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("bad metric name %q", n)
		}
		if !unit.MatchString(u) {
			t.Errorf("bad unit %q of %s", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	setup := false
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s [s, lower] is missing from end_to_end")
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range got.Workloads {
		check(w.Name, "x")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

// TestSmoke runs all four workloads at smoke size, traced: the traced pass of
// each workload includes an untraced pass, so this covers every child, the
// decorators, the profile, the replays and the correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the workload children")
	}
	opt := runOptions{seed: 1, seconds: defaultSeconds, smoke: true, traced: true, outDir: t.TempDir()}
	named := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		named[m.Name] = true
	}
	for _, w := range workloads {
		rec, err := runWorkload(w.Name, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rec.Correct {
			t.Errorf("%s: incorrect: %v", w.Name, rec.Problems)
		}
		for _, m := range endToEnd {
			if v := rec.E2E[m.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		for name := range rec.Layer {
			if !named[name] {
				t.Errorf("%s: reports %q, which BENCHMARK.json does not name", w.Name, name)
			}
		}
		sum := 0.0
		for _, l := range cpuLayers {
			sum += rec.Layer["cpu_share."+l]
		}
		if sum != 0 && math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu_share.* sums to %v", w.Name, sum)
		}
		line := rec.contract()
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: the traced contract line has %d metrics, want %d", w.Name, len(line.Metrics), len(perLayer))
		}
	}
}
