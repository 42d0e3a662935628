package mapper

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/daggen"
)

// paperDAG is the Fig. 2 task graph (experiments.PaperExampleDAG says how
// it is read off Fig. 4): c = (6, 4, 4, 2, 5), edges {1→3, 2→3, 1→4, 3→5, 4→5}.
func paperDAG(t testing.TB) *dag.Graph {
	t.Helper()
	g, err := dag.NewBuilder("fig2").
		AddTask(1, 6).AddTask(2, 4).AddTask(3, 4).AddTask(4, 2).AddTask(5, 5).
		AddEdge(1, 3).AddEdge(2, 3).AddEdge(1, 4).AddEdge(3, 5).AddEdge(4, 5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// paperProcs: I1 = 0.5, I2 = 0.4 (§12.1), identical machines.
func paperProcs() []ProcInfo {
	return []ProcInfo{{Site: 1, Surplus: 0.5}, {Site: 2, Surplus: 0.4}}
}

func buildPaper(t testing.TB) *TrialMapping {
	t.Helper()
	m, err := Build(paperDAG(t), paperProcs(), 3, 0, 66, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// TestPaperScheduleS pins Fig. 3: the schedule S computed by the mapper.
func TestPaperScheduleS(t *testing.T) {
	m := buildPaper(t)
	want := map[dag.TaskID]struct {
		proc          int
		start, finish float64
	}{
		1: {0, 0, 12},  // p1: 6/0.5 = 12
		2: {1, 0, 10},  // p2: 4/0.4 = 10
		3: {0, 13, 21}, // p1: start max(12, d2+ω=13) = 13, dur 8
		4: {1, 15, 20}, // p2: start max(10, d1+ω=15) = 15, dur 5
		5: {0, 23, 33}, // p1: start max(21, d3+0=21, d4+ω=23), dur 10
	}
	for id, w := range want {
		a := m.Assign[id-1]
		if a.Proc != w.proc {
			t.Errorf("task %d on proc %d, want %d", id, a.Proc, w.proc)
		}
		if math.Abs(a.Start-w.start) > 1e-9 || math.Abs(a.Finish-w.finish) > 1e-9 {
			t.Errorf("task %d in S: [%v,%v], want [%v,%v]", id, a.Start, a.Finish, w.start, w.finish)
		}
	}
	if math.Abs(m.Makespan-33) > 1e-9 {
		t.Fatalf("M = %v, want 33", m.Makespan)
	}
	if m.NumProcs() != 2 {
		t.Fatalf("|U| = %d, want 2", m.NumProcs())
	}
}

// TestPaperScheduleSStar pins Fig. 4: S* (surpluses 100%, same mapping).
func TestPaperScheduleSStar(t *testing.T) {
	m := buildPaper(t)
	want := map[dag.TaskID][2]float64{
		1: {0, 6},   // p1
		2: {0, 4},   // p2
		3: {7, 11},  // p1: max(6, 4+3) = 7
		4: {9, 11},  // p2: max(4, 6+3) = 9
		5: {14, 19}, // p1: max(11, 11+0, 11+3) = 14
	}
	for id, w := range want {
		a := m.Assign[id-1]
		if math.Abs(a.IdealStart-w[0]) > 1e-9 || math.Abs(a.IdealFinish-w[1]) > 1e-9 {
			t.Errorf("task %d in S*: [%v,%v], want [%v,%v]", id, a.IdealStart, a.IdealFinish, w[0], w[1])
		}
	}
	if math.Abs(m.IdealMakespan-19) > 1e-9 {
		t.Fatalf("M* = %v, want 19", m.IdealMakespan)
	}
}

// TestPaperTable1 pins the adjusted r(ti), d(ti) of Table 1 (case ii,
// scaling factor (d−r)/M = 2).
func TestPaperTable1(t *testing.T) {
	m := buildPaper(t)
	if m.Case != CaseScale {
		t.Fatalf("case = %v, want scale (ii)", m.Case)
	}
	want := map[dag.TaskID][2]float64{ // {r(ti), d(ti)}
		1: {0, 24},
		2: {0, 20},
		3: {24, 42},
		4: {27, 40},
		5: {43, 66},
	}
	for id, w := range want {
		if got := m.Assign[id-1].Release; math.Abs(got-w[0]) > 1e-9 {
			t.Errorf("r(t%d) = %v, want %v", id, got, w[0])
		}
		if got := m.Assign[id-1].Deadline; math.Abs(got-w[1]) > 1e-9 {
			t.Errorf("d(t%d) = %v, want %v", id, got, w[1])
		}
	}
}

func TestPaperTaskWindows(t *testing.T) {
	g := paperDAG(t)
	m := buildPaper(t)
	t0 := m.Tasks(g, 0)
	if len(t0) != 3 || t0[0].Task != 1 || t0[1].Task != 3 || t0[2].Task != 5 {
		t.Fatalf("T0 = %+v, want tasks 1,3,5", t0)
	}
	t1 := m.Tasks(g, 1)
	if len(t1) != 2 || t1[0].Task != 2 || t1[1].Task != 4 {
		t.Fatalf("T1 = %+v, want tasks 2,4", t1)
	}
	if t0[0].Complexity != 6 {
		t.Fatalf("complexity carried wrong: %v", t0[0])
	}
}

// Case (i): the window cannot hold even the full-speed schedule.
func TestCaseIRejection(t *testing.T) {
	_, err := Build(paperDAG(t), paperProcs(), 3, 0, 18, Options{})
	if err != ErrWindowTooTight {
		t.Fatalf("err = %v, want ErrWindowTooTight (M* = 19 > 18)", err)
	}
	// Boundary: d − r = 19 = M* is accepted (case iii).
	m, err := Build(paperDAG(t), paperProcs(), 3, 0, 19, Options{})
	if err != nil {
		t.Fatalf("window exactly M*: %v", err)
	}
	if m.Case != CaseLaxity {
		t.Fatalf("case = %v, want laxity (iii)", m.Case)
	}
}

// Case (iii): M* ≤ d − r < M with the paper's example numbers: window 25.
func TestCaseIIILaxity(t *testing.T) {
	g := paperDAG(t)
	m, err := Build(g, paperProcs(), 3, 0, 25, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.Case != CaseLaxity {
		t.Fatalf("case = %v, want laxity", m.Case)
	}
	// Critical path of S* is 1 → 4 → 5 (6 + comm 3 + 2 + comm 3 + 5 = 19);
	// η = 3.
	if m.Eta != 3 {
		t.Fatalf("η = %d, want 3", m.Eta)
	}
	// ℓ = (25 − 19)/3 = 2. Deadlines by eq. (4), reverse topological order:
	// d(t5) = 25 (sink)
	// d(t4) = d(t5) − ℓ − c(t5) − ω = 25 − 2 − 5 − 3 = 15
	// d(t3) = 25 − 2 − 5 − 0 = 18 (same proc as t5)
	// d(t2) = d(t3) − 2 − 4 − 3 = 9 (cross proc)
	// d(t1) = min(d(t3) − 2 − 4 − ω13, d(t4) − 2 − 2 − ω14)
	//       = min(18 − 6 − 0, 15 − 4 − 3) = min(12, 8) = 8
	wantD := map[dag.TaskID]float64{5: 25, 4: 15, 3: 18, 2: 9, 1: 8}
	for id, w := range wantD {
		if got := m.Assign[id-1].Deadline; math.Abs(got-w) > 1e-9 {
			t.Errorf("d(t%d) = %v, want %v", id, got, w)
		}
	}
	// Releases by eq. (5): r(t1) = r(t2) = 0,
	// r(t3) = max(d1 + 0, d2 + 3) = max(8, 12) = 12
	// r(t4) = d1 + 3 = 11
	// r(t5) = max(d3 + 0, d4 + 3) = max(18, 18) = 18
	wantR := map[dag.TaskID]float64{1: 0, 2: 0, 3: 12, 4: 11, 5: 18}
	for id, w := range wantR {
		if got := m.Assign[id-1].Release; math.Abs(got-w) > 1e-9 {
			t.Errorf("r(t%d) = %v, want %v", id, got, w)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	g := paperDAG(t)
	if _, err := Build(g, nil, 3, 0, 66, Options{}); err != ErrNoProcessors {
		t.Errorf("no procs: %v", err)
	}
	if _, err := Build(g, []ProcInfo{{Surplus: 0}}, 3, 0, 66, Options{}); err == nil {
		t.Error("zero surplus accepted")
	}
	if _, err := Build(g, []ProcInfo{{Surplus: 1.5}}, 3, 0, 66, Options{}); err == nil {
		t.Error("surplus > 1 accepted")
	}
	if _, err := Build(g, paperProcs(), -1, 0, 66, Options{}); err == nil {
		t.Error("negative omega accepted")
	}
	if _, err := Build(g, paperProcs(), 3, 10, 10, Options{}); err == nil {
		t.Error("empty window accepted")
	}
}

func TestSingleProcessorMapping(t *testing.T) {
	g := paperDAG(t)
	// One processor at full surplus: schedule is the serial order, no comm.
	m, err := Build(g, []ProcInfo{{Site: 7, Surplus: 1}}, 3, 0, 66, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumProcs() != 1 {
		t.Fatalf("|U| = %d, want 1", m.NumProcs())
	}
	if math.Abs(m.Makespan-21) > 1e-9 { // Σc = 21 serial
		t.Fatalf("M = %v, want 21", m.Makespan)
	}
	if math.Abs(m.IdealMakespan-m.Makespan) > 1e-9 {
		t.Fatalf("M* = %v should equal M at surplus 1", m.IdealMakespan)
	}
}

func TestUniformMachinesPower(t *testing.T) {
	g := paperDAG(t)
	// Same surplus, double power → all durations halve, M halves.
	m1, err := Build(g, []ProcInfo{{Surplus: 1, Power: 1}}, 0, 0, 660, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(g, []ProcInfo{{Surplus: 1, Power: 2}}, 0, 0, 660, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2.Makespan-m1.Makespan/2) > 1e-9 {
		t.Fatalf("power 2 makespan %v, want %v", m2.Makespan, m1.Makespan/2)
	}
}

func TestReleaseOffset(t *testing.T) {
	// Shifting the job release shifts the whole schedule rigidly.
	g := paperDAG(t)
	m0 := buildPaper(t)
	m50, err := Build(g, paperProcs(), 3, 50, 116, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.TaskIDs() {
		if math.Abs((m50.Assign[id-1].Start-50)-m0.Assign[id-1].Start) > 1e-9 {
			t.Fatalf("task %d: start %v, want %v+50", id, m50.Assign[id-1].Start, m0.Assign[id-1].Start)
		}
		if math.Abs((m50.Assign[id-1].Release-50)-m0.Assign[id-1].Release) > 1e-9 {
			t.Fatalf("task %d: release %v, want %v+50", id, m50.Assign[id-1].Release, m0.Assign[id-1].Release)
		}
		if math.Abs((m50.Assign[id-1].Deadline-50)-m0.Assign[id-1].Deadline) > 1e-9 {
			t.Fatalf("task %d: deadline %v, want %v+50", id, m50.Assign[id-1].Deadline, m0.Assign[id-1].Deadline)
		}
	}
}

func TestHeuristicVariantsProduceValidMappings(t *testing.T) {
	g := daggen.Layered(6, 3, 0.3, daggen.Params{MinComplexity: 2, MaxComplexity: 8}, 4)
	procs := []ProcInfo{{Site: 0, Surplus: 0.9}, {Site: 1, Surplus: 0.6}, {Site: 2, Surplus: 0.4}}
	for _, h := range []Heuristic{HeuristicCPEFT, HeuristicBestSurplus, HeuristicRoundRobin} {
		m, err := Build(g, procs, 2, 0, 10000, Options{Heuristic: h})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		checkMappingInvariants(t, g, m)
		if h == HeuristicBestSurplus && m.NumProcs() != 1 {
			t.Fatalf("best-surplus used %d procs, want 1", m.NumProcs())
		}
	}
}

// checkMappingInvariants verifies the structural soundness any mapping must
// satisfy, regardless of heuristic or adjustment case.
func checkMappingInvariants(t *testing.T, g *dag.Graph, m *TrialMapping) {
	t.Helper()
	for _, id := range g.TaskIDs() {
		a := m.Assign[id-1]
		if a.Proc < 0 || a.Proc >= m.NumProcs() {
			t.Fatalf("task %d on proc %d outside [0,%d)", id, a.Proc, m.NumProcs())
		}
		// Window sanity: r(t) >= job release, d(t) <= job deadline,
		// window fits the full-speed duration.
		if a.Release < m.JobRelease-1e-9 {
			t.Fatalf("task %d release %v before job release %v", id, a.Release, m.JobRelease)
		}
		if a.Deadline > m.JobDeadline+1e-9 {
			t.Fatalf("task %d deadline %v after job deadline %v", id, a.Deadline, m.JobDeadline)
		}
		durStar := a.IdealFinish - a.IdealStart
		if a.Release+durStar > a.Deadline+1e-6 {
			t.Fatalf("task %d window [%v,%v] cannot hold %v", id, a.Release, a.Deadline, durStar)
		}
	}
	// Precedence: within the adjusted windows, a successor's release covers
	// its predecessors' deadlines plus cross-processor communication.
	for _, id := range g.TaskIDs() {
		for _, s := range g.Successors(id) {
			comm := m.Omega
			if m.Assign[s-1].Proc == m.Assign[id-1].Proc {
				comm = 0
			}
			if m.Assign[s-1].Release < m.Assign[id-1].Deadline+comm-1e-6 {
				t.Fatalf("edge %d->%d: release %v < deadline %v + comm %v",
					id, s, m.Assign[s-1].Release, m.Assign[id-1].Deadline, comm)
			}
		}
	}
	// S is a valid schedule: no overlap per processor, precedence + comm
	// respected.
	perProc := make(map[int][]Assignment)
	for _, id := range g.TaskIDs() {
		perProc[m.Assign[id-1].Proc] = append(perProc[m.Assign[id-1].Proc], m.Assign[id-1])
	}
	for _, list := range perProc {
		for i := range list {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.Start < b.Finish-1e-9 && b.Start < a.Finish-1e-9 {
					t.Fatalf("overlapping tasks on proc %d: %+v %+v", a.Proc, a, b)
				}
			}
		}
	}
	for _, id := range g.TaskIDs() {
		for _, s := range g.Successors(id) {
			comm := m.Omega
			if m.Assign[s-1].Proc == m.Assign[id-1].Proc {
				comm = 0
			}
			if m.Assign[s-1].Start < m.Assign[id-1].Finish+comm-1e-9 {
				t.Fatalf("S violates precedence %d->%d", id, s)
			}
		}
	}
}

// Property: for random DAGs and processor sets, any mapping that Build
// returns satisfies the invariants; rejections only happen with the
// documented errors.
func TestPropertyMappingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := daggen.AllKinds[rng.Intn(len(daggen.AllKinds))]
		g, err := daggen.Generate(kind, 4+rng.Intn(20), daggen.Params{MinComplexity: 1, MaxComplexity: 6}, seed)
		if err != nil {
			return false
		}
		nProcs := 1 + rng.Intn(5)
		procs := make([]ProcInfo, nProcs)
		for i := range procs {
			procs[i] = ProcInfo{Site: 0, Surplus: 0.2 + 0.8*rng.Float64()}
		}
		sort.SliceStable(procs, func(a, b int) bool { return procs[a].Surplus > procs[b].Surplus })
		omega := rng.Float64() * 5
		tight := 1.0 + rng.Float64()*3
		d := g.CriticalPathLength() * tight * 2
		opts := Options{
			Heuristic:  Heuristic(rng.Intn(3)),
			LaxityMode: LaxityMode(rng.Intn(2)),
		}
		m, err := Build(g, procs, omega, 0, d, opts)
		if err != nil {
			return err == ErrWindowTooTight || err == ErrInconsistentWindows
		}
		sub := &testing.T{}
		checkMappingInvariants(sub, g, m)
		return !sub.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildPaperExample(b *testing.B) {
	g := paperDAG(b)
	procs := paperProcs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, procs, 3, 0, 66, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildLayered50On8(b *testing.B) {
	g := daggen.Layered(17, 3, 0.2, daggen.Params{MinComplexity: 1, MaxComplexity: 8}, 1)
	procs := make([]ProcInfo, 8)
	for i := range procs {
		procs[i] = ProcInfo{Surplus: 1 - float64(i)*0.1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, procs, 2, 0, 1e6, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDataVolumeComm: with the §13 data-volume model, cross-processor
// windows must account ω + volume/throughput per edge.
func TestDataVolumeComm(t *testing.T) {
	g, err := dag.NewBuilder("vol").
		AddTask(1, 4).AddTask(2, 4).AddTask(3, 2).
		AddDataEdge(1, 3, 10).
		AddDataEdge(2, 3, 20).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	procs := []ProcInfo{{Site: 0, Surplus: 1}, {Site: 1, Surplus: 1}}
	m, err := Build(g, procs, 1, 0, 1000, Options{Throughput: 10})
	if err != nil {
		t.Fatal(err)
	}
	// EFT with comm 1+10/10=2 and 1+20/10=3: t1 on p0 [0,4], t2 on p1
	// [0,4]; t3 earliest finish on p0: max(4, 4+0, 4+3)=7..9; on p1:
	// max(4, 4+2, 4+0)=6..8 — t3 lands on p1, start 6, finish 8.
	a3 := m.Assign[2]
	if a3.Proc != 1 || math.Abs(a3.Start-6) > 1e-9 || math.Abs(a3.Finish-8) > 1e-9 {
		t.Fatalf("t3 placement %+v, want proc 1 [6,8]", a3)
	}
	// Adjusted windows keep the per-edge comm: r(t3) >= d(t1) + 2 (cross)
	// and >= d(t2) + 0 (same proc).
	if m.Assign[2].Release < m.Assign[0].Deadline+2-1e-9 {
		t.Fatalf("r(t3)=%v < d(t1)+2=%v", m.Assign[2].Release, m.Assign[0].Deadline+2)
	}
	// Throughput 0 falls back to plain ω everywhere.
	m0, err := Build(g, procs, 1, 0, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m0.Assign[2].Start > 5+1e-9 {
		t.Fatalf("base model start %v, want <= 5 (ω only)", m0.Assign[2].Start)
	}
	if _, err := Build(g, procs, 1, 0, 1000, Options{Throughput: -1}); err == nil {
		t.Fatal("negative throughput accepted")
	}
}
