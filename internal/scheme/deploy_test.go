package scheme

import (
	"slices"
	"testing"

	"repro/internal/core/policy"
	"repro/internal/graph"
	"repro/internal/mapper"
)

func TestCoreConfigExposesSchemeBases(t *testing.T) {
	topo := graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, 1)
	cfg, err := CoreConfig("rtds", topo)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Radius != 3 {
		t.Fatalf("rtds radius %d, want the paper's 3", cfg.Radius)
	}
	cfg, err = CoreConfig("broadcast", topo)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Radius != topo.Len() {
		t.Fatalf("broadcast radius %d, want the whole network %d", cfg.Radius, topo.Len())
	}
	cfg, err = CoreConfig("local", topo)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.LocalOnly {
		t.Fatal("local scheme lost LocalOnly")
	}
	if _, err := CoreConfig("fab", topo); err == nil {
		t.Fatal("fab has no RTDS core and must be refused for node deployment")
	}
	if _, err := CoreConfig("oracle", topo); err == nil {
		t.Fatal("oracle has no RTDS core and must be refused for node deployment")
	}
	if _, err := CoreConfig("nope", topo); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestDeployableIsWhatCoreConfigAccepts: rtds-node's -scheme usage lists
// Deployable, so it must name every scheme CoreConfig accepts and no other.
func TestDeployableIsWhatCoreConfigAccepts(t *testing.T) {
	topo := graph.RandomConnected(12, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, 1)
	var accepted []string
	for _, name := range Names() {
		if _, err := CoreConfig(name, topo); err == nil {
			accepted = append(accepted, name)
		}
	}
	if got := Deployable(); !slices.Equal(got, accepted) || !slices.Equal(got, []string{"broadcast", "local", "rtds", "rtds-hier"}) {
		t.Fatalf("Deployable() = %v, CoreConfig accepts %v", got, accepted)
	}
}

func TestParsePolicies(t *testing.T) {
	set, err := ParsePolicies("")
	if err != nil || set != (policy.Set{}) {
		t.Fatalf("empty spec: set=%v err=%v, want zero set", set, err)
	}
	set, err = ParsePolicies("sphere=k6,accept=laxity0.25,dispatch=weighted")
	if err != nil {
		t.Fatal(err)
	}
	if kr, ok := set.Sphere.(policy.KRedundant); !ok || kr.K != 6 {
		t.Fatalf("sphere=%#v, want KRedundant{6}", set.Sphere)
	}
	if lt, ok := set.Acceptance.(policy.LaxityThreshold); !ok || lt.Theta != 0.25 {
		t.Fatalf("accept=%#v, want LaxityThreshold{0.25}", set.Acceptance)
	}
	if set.Dispatch != mapper.LaxityBusynessWeighted {
		t.Fatalf("dispatch=%v, want busyness-weighted", set.Dispatch)
	}
	set, err = ParsePolicies("sphere=full,accept=edf,dispatch=uniform")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.Sphere.(policy.FullSphere); !ok {
		t.Fatalf("sphere=%#v, want FullSphere", set.Sphere)
	}
	for _, bad := range []string{
		"sphere", "sphere=k0", "sphere=kx", "sphere=half",
		"accept=laxity1.5", "accept=greedy", "dispatch=random",
		"mapper=eft", "sphere=k6;accept=edf",
	} {
		if _, err := ParsePolicies(bad); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
}
