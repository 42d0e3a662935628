package experiments

import (
	"fmt"
	"strings"
)

// CompareReports checks a freshly-run suite report against the committed
// baseline (the cmd/rtds-bench -check gate). The suite is seeded and
// deterministic, so the gate is one exact comparison: the same size, the
// same set of experiment@seed keys, and every rendered table identical line
// for line. An experiment whose table differs is reported at its first
// differing line; a deliberate behavior change regenerates the baseline.
//
// Nothing wall-clock is compared: events/sec is a reading of the host, and
// throughput and latency regressions are the benchmark's job (go run
// ./benchmark), which measures them against the parent commit with a
// recorded spread.
//
// All problems are reported together so one CI run shows the full damage.
func CompareReports(baseline, current BenchReport) error {
	var problems []string
	if baseline.Size != current.Size {
		problems = append(problems, fmt.Sprintf(
			"suite size %q does not match the baseline's %q", current.Size, baseline.Size))
	}
	base := make(map[string]BenchExperiment, len(baseline.Experiments))
	for _, b := range baseline.Experiments {
		base[b.key()] = b
	}
	ran := make(map[string]bool, len(current.Experiments))
	for _, c := range current.Experiments {
		key := c.key()
		ran[key] = true
		b, ok := base[key]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"experiment %s absent from the baseline (regenerate it)", key))
			continue
		}
		if diff := firstDiff(b.Table, c.Table); diff != "" {
			problems = append(problems, key+": "+diff)
		}
	}
	for _, b := range baseline.Experiments {
		if key := b.key(); !ran[key] {
			problems = append(problems, fmt.Sprintf("experiment %s missing from the run", key))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("benchmark regression gate failed:\n  %s", strings.Join(problems, "\n  "))
}

func (e BenchExperiment) key() string { return fmt.Sprintf("%s@%d", e.Name, e.Seed) }

// firstDiff describes the first line at which a run's table departs from
// the baseline's, or returns "" when the two are identical. Lines count
// from 1, the caption included.
func firstDiff(want, got []string) string {
	for i := 0; i < max(len(want), len(got)); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("table line %d: the run's table ends, the baseline has %q", i+1, want[i])
		case i >= len(want):
			return fmt.Sprintf("table line %d: the baseline's table ends, the run has %q", i+1, got[i])
		case want[i] != got[i]:
			return fmt.Sprintf("table line %d differs:\n    baseline %q\n    run      %q", i+1, want[i], got[i])
		}
	}
	return ""
}
