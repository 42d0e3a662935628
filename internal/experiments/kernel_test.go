package experiments

import (
	"testing"
)

// kernelIdentityExperiments is the property-test slice of the suite: the
// load sweep (the archetypal dense-traffic experiment), the fault-injection
// experiment (lossy plans must collapse to one partition and still match)
// and churn (crash-only plans run genuinely parallel, so under -race this
// test is also the kernel's data-race probe on real protocol traffic).
var kernelIdentityExperiments = []string{
	"E1-guarantee-vs-load",
	"E12-fault-tolerance",
	"E14-churn",
}

// TestKernelWorkersByteIdentity is the tentpole invariant, tested end to
// end: for every partition count the parallel kernel must reproduce the
// serial kernel's experiment tables byte for byte, with identical event
// counts, for every seed. The partition counts cross the interesting
// boundaries: 1 (the in-line serial fast path), small composites, 8 (the
// speedup target) and 17 (more partitions than some topologies have
// sites, exercising the clamp).
func TestKernelWorkersByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three experiments at six kernel settings")
	}
	seeds := []int64{1, 2, 3}
	var tasks []Task
	for _, s := range seeds {
		for _, n := range Suite() {
			for _, want := range kernelIdentityExperiments {
				if n.Name == want {
					tasks = append(tasks, Task{Exp: n, Seed: s})
				}
			}
		}
	}
	if len(tasks) != len(seeds)*len(kernelIdentityExperiments) {
		t.Fatalf("resolved %d tasks, want %d — experiment names drifted",
			len(tasks), len(seeds)*len(kernelIdentityExperiments))
	}

	serial := RunTasks(Quick, tasks, 1, 0)
	if err := FirstError(serial); err != nil {
		t.Fatalf("serial reference run: %v", err)
	}
	for _, p := range []int{1, 2, 3, 8, 17} {
		got := RunTasks(Quick, tasks, 1, p)
		if err := FirstError(got); err != nil {
			t.Fatalf("kernel-workers=%d: %v", p, err)
		}
		for i, r := range got {
			ref := serial[i]
			if r.Events != ref.Events {
				t.Errorf("kernel-workers=%d %s@%d: %d events, serial processed %d",
					p, r.Name, r.Seed, r.Events, ref.Events)
			}
			if r.Table.String() != ref.Table.String() {
				t.Errorf("kernel-workers=%d %s@%d: table diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
					p, r.Name, r.Seed, ref.Table.String(), r.Table.String())
			}
		}
	}
}
