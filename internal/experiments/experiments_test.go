package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestPaperExampleMatchesPaper(t *testing.T) {
	res, err := PaperExample()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPaperExample(res); err != nil {
		t.Fatalf("reproduction diverges from the paper: %v", err)
	}
	// Renderings exist and carry the right captions.
	if !strings.Contains(res.GanttS, "M = 33") {
		t.Errorf("Fig. 3 caption wrong:\n%s", res.GanttS)
	}
	if !strings.Contains(res.GanttSStar, "M* = 19") {
		t.Errorf("Fig. 4 caption wrong:\n%s", res.GanttSStar)
	}
	if res.Table1.NumRows() != 5 {
		t.Fatalf("Table 1 has %d rows", res.Table1.NumRows())
	}
	// The rendered Table 1 literally contains the paper's numbers.
	rendered := res.Table1.String()
	for _, v := range []string{"24", "20", "42", "40", "66", "43", "27"} {
		if !strings.Contains(rendered, v) {
			t.Errorf("Table 1 rendering missing %s:\n%s", v, rendered)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	res, err := PaperExample()
	if err != nil {
		t.Fatal(err)
	}
	res.Mapping.Assign[2].Release = 999
	if err := VerifyPaperExample(res); err == nil {
		t.Fatal("verification accepted corrupted release")
	}
}

// lookup returns the suite experiment called name.
func lookup(t testing.TB, name string) Named {
	t.Helper()
	for _, n := range Suite() {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no suite experiment %q", name)
	return Named{}
}

// runNamed runs the suite experiment called name at the quick size.
func runNamed(t testing.TB, name string, seed int64) *Table {
	t.Helper()
	r := RunTasks(Quick, []Task{{Exp: lookup(t, name), Seed: seed}}, 0, 0)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return r.Table
}

// parse extracts the float in column `col` of row `row` from a rendered
// table (data rows start after header + separator).
func parse(t *testing.T, tbl interface{ String() string }, row, col int) float64 {
	t.Helper()
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	fields := strings.Fields(lines[3+row])
	v, err := strconv.ParseFloat(fields[col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, fields[col], err)
	}
	return v
}

func TestE1QualitativeClaims(t *testing.T) {
	tbl := runNamed(t, "E1-guarantee-vs-load", 1)
	if tbl.NumRows() != 6 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	// The paper's claim: distribution "leads to an increase of the number
	// of accepted jobs". At every load RTDS must beat or match local-only,
	// and strictly beat it at moderate+ loads.
	strictlyBetter := 0
	for r := 0; r < 6; r++ {
		rtds := parse(t, tbl, r, 2)
		local := parse(t, tbl, r, 3)
		if rtds < local-0.02 {
			t.Errorf("row %d: rtds %.3f below local-only %.3f", r, rtds, local)
		}
		if rtds > local+0.02 {
			strictlyBetter++
		}
	}
	if strictlyBetter < 2 {
		t.Errorf("RTDS never strictly beats local-only:\n%s", tbl)
	}
	// FA/bidding cannot split DAGs: it must not dominate RTDS overall.
	var rtdsSum, fabSum float64
	for r := 0; r < 6; r++ {
		rtdsSum += parse(t, tbl, r, 2)
		fabSum += parse(t, tbl, r, 5)
	}
	if rtdsSum < fabSum {
		t.Errorf("fa-bidding dominates RTDS overall:\n%s", tbl)
	}
	// The clairvoyant oracle is an upper bound on every distributed scheme.
	for r := 0; r < 6; r++ {
		oracle := parse(t, tbl, r, 1)
		for col := 2; col <= 5; col++ {
			if v := parse(t, tbl, r, col); oracle < v-0.02 {
				t.Errorf("row %d col %d: oracle %.3f below %.3f:\n%s", r, col, oracle, v, tbl)
			}
		}
	}
}

func TestE2SphereBoundsTraffic(t *testing.T) {
	tbl := runNamed(t, "E2-messages-vs-size", 1)
	// At the largest quick size (32 sites), sphere-limited RTDS must use
	// fewer messages per job than the whole-network broadcast variant, and
	// the FA/bidding flood must be the most expensive.
	last := tbl.NumRows() - 1
	rtds := parse(t, tbl, last, 1)
	bcast := parse(t, tbl, last, 2)
	fab := parse(t, tbl, last, 3)
	if rtds >= bcast {
		t.Errorf("rtds %.1f msgs/job not below broadcast %.1f:\n%s", rtds, bcast, tbl)
	}
	if fab <= rtds {
		t.Errorf("fa-bidding flood %.1f msgs/job not above rtds %.1f:\n%s", fab, rtds, tbl)
	}
	// RTDS traffic grows sublinearly: doubling sites from row 1 to the last
	// must less-than-double msgs/job... broadcast must grow faster.
	rtdsFirst := parse(t, tbl, 0, 1)
	bcastFirst := parse(t, tbl, 0, 2)
	rtdsGrowth := rtds / rtdsFirst
	bcastGrowth := bcast / bcastFirst
	if rtdsGrowth >= bcastGrowth {
		t.Errorf("rtds growth %.2fx not below broadcast growth %.2fx:\n%s",
			rtdsGrowth, bcastGrowth, tbl)
	}
}

func TestE3RadiusTradeoff(t *testing.T) {
	tbl := runNamed(t, "E3-sphere-radius", 1)
	if tbl.NumRows() != 5 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	// Larger spheres cannot shrink the mean ACS, and bootstrap cost must
	// grow strictly with h.
	for r := 1; r < 5; r++ {
		if parse(t, tbl, r, 3) < parse(t, tbl, r-1, 3)-0.5 {
			t.Errorf("mean ACS shrank noticeably with larger h:\n%s", tbl)
		}
		if parse(t, tbl, r, 4) <= parse(t, tbl, r-1, 4) {
			t.Errorf("bootstrap cost did not grow with h:\n%s", tbl)
		}
	}
}

func TestE4TightnessMonotoneTrend(t *testing.T) {
	tbl := runNamed(t, "E4-deadline-tightness", 1)
	// Looser deadlines must not hurt: last row (tightness 6) must beat the
	// first row (1.2) for both algorithms.
	if parse(t, tbl, 5, 1) <= parse(t, tbl, 0, 1) {
		t.Errorf("rtds ratio did not improve with looser deadlines:\n%s", tbl)
	}
	if parse(t, tbl, 5, 2) <= parse(t, tbl, 0, 2) {
		t.Errorf("local-only ratio did not improve with looser deadlines:\n%s", tbl)
	}
}

func TestAblationExperimentsRun(t *testing.T) {
	runs := []struct {
		short, name string
		rows        int
	}{
		{"E5", "E5-laxity-dispatch", 2},
		{"E6", "E6-uniform-machines", 2},
		{"E7", "E7-preemption", 2},
		{"E8", "E8-mapper-heuristics", 4},
		{"E11", "E11-data-volumes", 5},
		{"E9", "E9-pcs-construction", 8},
	}
	for _, c := range runs {
		c := c
		t.Run(c.short, func(t *testing.T) {
			t.Parallel()
			tb := runNamed(t, c.name, 1)
			if tb.NumRows() != c.rows {
				t.Errorf("%s: %d rows, want %d:\n%s", c.name, tb.NumRows(), c.rows, tb)
			}
		})
	}
}

// TestE12FaultToleranceDegradesGracefully checks the fault sweep's
// qualitative content at the quick size: the clean cell matches healthy
// behaviour, injected loss costs admission but never liveness (every job is
// decided in every cell), and the dropped-traversal column tracks the
// injected intensity.
func TestE12FaultToleranceDegradesGracefully(t *testing.T) {
	tbl := runNamed(t, "E12-fault-tolerance", 1)
	rows := tbl.NumRows()
	if rows != len(e12Loss)*len(e12CrashCounts(Quick)) {
		t.Fatalf("%d rows, want %d", rows, len(e12Loss)*len(e12CrashCounts(Quick)))
	}
	col := map[string]int{}
	for i, h := range tbl.Headers {
		col[h] = i
	}
	cell := func(row int, name string) float64 {
		v, err := strconv.ParseFloat(tbl.Cell(row, col[name]), 64)
		if err != nil {
			t.Fatalf("row %d col %s: %v", row, name, err)
		}
		return v
	}
	for row := 0; row < rows; row++ {
		loss := cell(row, "loss")
		for _, scheme := range []string{"rtds", "broadcast", "fa-bidding"} {
			if r := cell(row, scheme); r < 0 || r > 1 {
				t.Errorf("row %d: %s ratio %v outside [0,1]", row, scheme, r)
			}
		}
		if u := cell(row, "undecided"); u != 0 {
			t.Errorf("row %d: %v undecided RTDS jobs — initiator-side timeouts failed", row, u)
		}
		if loss == 0 && cell(row, "crashes") == 0 {
			if d := cell(row, "dropped"); d != 0 {
				t.Errorf("clean cell dropped %v traversals", d)
			}
		}
		if loss >= 0.1 && cell(row, "dropped") == 0 {
			t.Errorf("row %d: loss %v dropped nothing — injector inert", row, loss)
		}
	}
	// Loss costs admission: the heaviest-loss cell cannot beat the clean
	// cell (deterministic for this seed; the margin is wide in practice).
	if clean, worst := cell(0, "rtds"), cell(rows-1, "rtds"); worst >= clean {
		t.Errorf("rtds ratio did not degrade: clean %v vs 20%% loss %v", clean, worst)
	}
}
