package experiments

import (
	"strings"
	"testing"
)

func gateReports() (BenchReport, BenchReport) {
	base := BenchReport{
		Size:         "quick",
		EventsPerSec: 100000,
		Experiments: []BenchExperiment{
			{Name: "E1", Seed: 1, Rows: 6, GuaranteeRatios: map[string]float64{"rtds": 0.8, "oracle": 0.95}},
			{Name: "E2", Seed: 1, Rows: 4},
		},
	}
	cur := BenchReport{
		Size:         "quick",
		EventsPerSec: 98000,
		Experiments: []BenchExperiment{
			{Name: "E1", Seed: 1, Rows: 6, GuaranteeRatios: map[string]float64{"rtds": 0.8, "oracle": 0.95}},
			{Name: "E2", Seed: 1, Rows: 4},
		},
	}
	return base, cur
}

func TestCompareReportsPasses(t *testing.T) {
	base, cur := gateReports()
	if err := CompareReports(base, cur); err != nil {
		t.Fatalf("identical reports failed the gate: %v", err)
	}
}

func TestCompareReportsCatchesRatioDrift(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[0].GuaranteeRatios["rtds"] = 0.79
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("ratio drift not caught: %v", err)
	}
}

func TestCompareReportsCatchesMissingExperiment(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments = cur.Experiments[:1]
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing experiment not caught: %v", err)
	}
}

func TestCompareReportsCatchesRowCountChange(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[1].Rows = 5
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("row count change not caught: %v", err)
	}
}

func TestCompareReportsCatchesNewRatioColumn(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[0].GuaranteeRatios["new-scheme"] = 0.5
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "absent from the baseline") {
		t.Fatalf("new ratio column not caught: %v", err)
	}
}

func TestCompareReportsCatchesNewExperiment(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments = append(cur.Experiments, BenchExperiment{Name: "E99", Seed: 1, Rows: 2})
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "absent from the baseline") {
		t.Fatalf("unpinned new experiment not caught: %v", err)
	}
}

func TestCompareReportsSizeMismatch(t *testing.T) {
	base, cur := gateReports()
	cur.Size = "full"
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("size mismatch not caught: %v", err)
	}
}

func microReports() (BenchReport, BenchReport) {
	base, cur := gateReports()
	base.Micro = []MicroBench{
		{Name: "wire/append-frame", AllocsPerOp: 0, NsPerOp: 25},
		{Name: "schedule/admit-reject", AllocsPerOp: 0, NsPerOp: 120},
	}
	cur.Micro = []MicroBench{
		{Name: "wire/append-frame", AllocsPerOp: 0, NsPerOp: 60},
		{Name: "schedule/admit-reject", AllocsPerOp: 0, NsPerOp: 300},
	}
	return base, cur
}

func TestCompareReportsMicroPasses(t *testing.T) {
	base, cur := microReports()
	if err := CompareReports(base, cur); err != nil {
		t.Fatalf("matching micro-benchmarks failed the gate: %v", err)
	}
}

func TestCompareReportsCatchesAllocRegression(t *testing.T) {
	base, cur := microReports()
	cur.Micro[0].AllocsPerOp = 2
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocs/op regression not caught: %v", err)
	}
}

func TestCompareReportsAllocImprovementPasses(t *testing.T) {
	base, cur := microReports()
	base.Micro[1].AllocsPerOp = 5 // current is better than the baseline
	if err := CompareReports(base, cur); err != nil {
		t.Fatalf("allocs/op improvement failed the gate: %v", err)
	}
}

func TestCompareReportsNsPerOpNeverGated(t *testing.T) {
	base, cur := microReports()
	cur.Micro[0].NsPerOp = base.Micro[0].NsPerOp * 100
	if err := CompareReports(base, cur); err != nil {
		t.Fatalf("ns/op drift must not gate: %v", err)
	}
}

func TestCompareReportsCatchesMissingMicro(t *testing.T) {
	base, cur := microReports()
	cur.Micro = cur.Micro[:1]
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "micro-benchmark") {
		t.Fatalf("missing micro-benchmark not caught: %v", err)
	}
}

func TestCompareReportsCatchesUnpinnedMicro(t *testing.T) {
	base, cur := microReports()
	cur.Micro = append(cur.Micro, MicroBench{Name: "sim/event-loop"})
	err := CompareReports(base, cur)
	if err == nil || !strings.Contains(err.Error(), "absent from the baseline") {
		t.Fatalf("unpinned micro-benchmark not caught: %v", err)
	}
}

func TestCompareReportsBaselineWithoutMicroPasses(t *testing.T) {
	// A pre-micro baseline must keep gating experiments without demanding
	// micro rows (forward compatibility for locally pinned old baselines).
	base, cur := microReports()
	base.Micro = nil
	if err := CompareReports(base, cur); err != nil {
		t.Fatalf("baseline without micro section failed the gate: %v", err)
	}
}
