package experiments

import (
	"strings"
	"testing"
)

func gateReports() (BenchReport, BenchReport) {
	mk := func() BenchReport {
		return BenchReport{
			Size: "quick",
			Experiments: []BenchExperiment{
				{Name: "E1", Seed: 1, Events: 143931, Table: []string{
					"E1 — guarantee ratio vs offered load",
					"load   rtds",
					"-----  -----",
					"0.200  1    ",
					"0.400  0.972",
				}},
				{Name: "E2", Seed: 1, Events: 2048, Table: []string{"E2", "sites", "-----", "8    "}},
			},
		}
	}
	return mk(), mk()
}

// gateFails runs the gate and requires an error that names every want.
func gateFails(t *testing.T, base, cur BenchReport, want ...string) {
	t.Helper()
	err := CompareReports(base, cur)
	if err == nil {
		t.Fatalf("gate passed, want a failure naming %q", want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("gate error does not name %q:\n%v", w, err)
		}
	}
}

func TestCompareReportsPasses(t *testing.T) {
	base, cur := gateReports()
	if err := CompareReports(base, cur); err != nil {
		t.Fatalf("identical tables failed the gate: %v", err)
	}
}

// Event counts are as deterministic as the tables: a run that processes
// another number of events fails even when every table line matches.
func TestCompareReportsCatchesEventDrift(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[1].Events++
	gateFails(t, base, cur, "E2@1: 2049 events, the baseline has 2048")
	if err := CompareReports(base, cur); strings.Contains(err.Error(), "E1@1") || strings.Contains(err.Error(), "table line") {
		t.Errorf("event drift in E2 also named a table or E1:\n%v", err)
	}
}

func TestCompareReportsCatchesRatioDrift(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[0].Table[4] = "0.400  0.971"
	gateFails(t, base, cur, "E1@1", "table line 5 differs", `"0.400  0.972"`, `"0.400  0.971"`)
}

func TestCompareReportsCatchesRowCountChange(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[1].Table = append(cur.Experiments[1].Table, "16   ")
	gateFails(t, base, cur, "E2@1", "table line 5", "the baseline's table ends", `"16   "`)
}

func TestCompareReportsCatchesDroppedRow(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[0].Table = cur.Experiments[0].Table[:4]
	gateFails(t, base, cur, "E1@1", "table line 5", "the run's table ends", `"0.400  0.972"`)
}

func TestCompareReportsCatchesNewRatioColumn(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[0].Table[1] = "load   rtds   new-scheme"
	gateFails(t, base, cur, "E1@1", "table line 2 differs")
}

func TestCompareReportsCatchesMissingExperiment(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments = cur.Experiments[:1]
	gateFails(t, base, cur, "experiment E2@1 missing from the run")
}

func TestCompareReportsCatchesNewExperiment(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments = append(cur.Experiments, BenchExperiment{Name: "E99", Seed: 1, Table: []string{"E99"}})
	gateFails(t, base, cur, "experiment E99@1 absent from the baseline")
}

// A seed is part of an experiment's key: the same experiment at another
// seed is one missing and one extra key, not a table diff.
func TestCompareReportsCatchesOtherSeed(t *testing.T) {
	base, cur := gateReports()
	cur.Experiments[1].Seed = 2
	gateFails(t, base, cur, "experiment E2@2 absent from the baseline", "experiment E2@1 missing from the run")
}

func TestCompareReportsSizeMismatch(t *testing.T) {
	base, cur := gateReports()
	cur.Size = "full"
	gateFails(t, base, cur, "size")
}
