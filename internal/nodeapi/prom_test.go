package nodeapi

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// The node's exposition of a fixed snapshot, byte for byte.
func TestPromExpositionGolden(t *testing.T) {
	st := snapshot{
		site: 3, ready: true,
		sum: core.Summary{
			Submitted: 12, Undecided: 2, AcceptedLocal: 6, AcceptedDistributed: 3,
			MeanDecisionLatency: 0.4, DecisionLatencies: [len(core.LatencyBounds) + 1]int{4, 1, 0, 2, 2, 0, 0, 0, 0, 1},
			Messages: 140, Bytes: 9800, Dropped: 2, Violations: 1, Disruptions: 3,
			RoutingTableBytes: 512, RoutingEntries: 15,
		},
		byKind:            map[string]int64{"rtds.enroll": 40, "rtds.commit": 25, `odd"kind`: 1},
		bootstrapMessages: 64, bootstrapBytes: 4096,
	}
	got := buildProm(st).Expose()
	path := filepath.Join("testdata", "exposition.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\n%s", path, got)
	}
}
