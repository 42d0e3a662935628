package scheme

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
)

func testTopo() *graph.Graph {
	return graph.RandomConnected(10, 3, graph.DelayRange{Min: 0.05, Max: 0.2}, 3)
}

func testJob(t testing.TB, n int, dur float64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("j")
	for i := 1; i <= n; i++ {
		b.AddTask(dag.TaskID(i), dur)
		if i > 1 {
			b.AddEdge(dag.TaskID(i-1), dag.TaskID(i))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// drive submits a small burst (tight enough that some jobs must distribute)
// and drains the run.
func drive(t testing.TB, c Cluster) Result {
	t.Helper()
	for i := 0; i < 12; i++ {
		g := testJob(t, 3, 4)
		if err := c.Submit(float64(i), graph.NodeID(i%10), g, g.CriticalPathLength()*1.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Summarize()
}

func TestRegistryContents(t *testing.T) {
	want := []string{"broadcast", "fab", "local", "oracle", "rtds", "rtds-hier"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry %v, want %v (sorted)", got, want)
		}
	}
	for _, n := range want {
		s, ok := Get(n)
		if !ok || s.Name() != n || s.Description() == "" {
			t.Fatalf("scheme %q missing or inconsistent", n)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown scheme resolved")
	}
}

func TestMustGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet(nope) did not panic")
		}
	}()
	MustGet("nope")
}

func TestLocalNeverDistributes(t *testing.T) {
	c, err := MustGet("local").Build(testTopo(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := drive(t, c)
	if res.Core == nil {
		t.Fatal("local scheme is core-backed but reported no core summary")
	}
	if res.Core.AcceptedDistributed != 0 {
		t.Fatalf("local-only scheme distributed %d jobs", res.Core.AcceptedDistributed)
	}
	if res.Core.Rejected > 0 && res.Core.RejectedByStage[core.StageLocalOnly] == 0 {
		t.Fatalf("rejections not attributed to the local-only stage: %v", res.Core.RejectedByStage)
	}
}

func TestBroadcastSphereCoversNetwork(t *testing.T) {
	topo := testTopo()
	c, err := MustGet("broadcast").Build(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cb, ok := c.(CoreBacked)
	if !ok {
		t.Fatal("broadcast cluster does not expose its core")
	}
	if got := len(cb.Core().SiteSphere(0)); got != topo.Len()-1 {
		t.Fatalf("broadcast sphere of site 0 has %d members, want %d", got, topo.Len()-1)
	}
	if _, ok := c.(Bootstrapper); !ok {
		t.Fatal("core-backed cluster does not report bootstrap cost")
	}
}

// TestTuneOverridesBase: Config.Tune runs after the scheme base, so an
// experiment can re-tune any core knob (here: shrink broadcast's radius
// back down, which must shrink the sphere).
func TestTuneOverridesBase(t *testing.T) {
	topo := testTopo()
	c, err := MustGet("broadcast").Build(topo, Config{
		Tune: func(cfg *core.Config) { cfg.Radius = 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.(CoreBacked).Core().SiteSphere(0)); got >= topo.Len()-1 {
		t.Fatalf("Tune did not override the scheme base: sphere %d", got)
	}
}

func TestOracleCostsNothing(t *testing.T) {
	c, err := MustGet("oracle").Build(testTopo(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := drive(t, c)
	if res.Messages != 0 || c.EventsProcessed() != 0 {
		t.Fatalf("oracle reported costs: %d msgs, %d events", res.Messages, c.EventsProcessed())
	}
	if res.Jobs != 12 || res.GuaranteeRatio <= 0 {
		t.Fatalf("oracle summary %v", res)
	}
}

func TestFabScheme(t *testing.T) {
	c, err := MustGet("fab").Build(testTopo(), Config{Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	res := drive(t, c)
	if res.Core != nil {
		t.Fatal("fab reported a core summary")
	}
	if res.Jobs != 12 || res.Messages == 0 || res.MessagesPerJob == 0 {
		t.Fatalf("fab summary %v", res)
	}
}
