package experiments

import (
	"strconv"
	"testing"
)

func TestE14ChurnInvariants(t *testing.T) {
	tbl := runNamed(t, "E14-churn", 1)
	// One control row (churn 0) plus two rows (permanent, rejoin) per
	// non-zero churn level.
	wantRows := 1 + 2*(len(e14ChurnCounts(Quick))-1)
	if tbl.NumRows() != wantRows {
		t.Fatalf("%d rows, want %d", tbl.NumRows(), wantRows)
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
	for row := 0; row < tbl.NumRows(); row++ {
		for _, scheme := range []string{"rtds", "broadcast", "fa-bidding"} {
			if r := cell(row, scheme); r < 0 || r > 1 {
				t.Errorf("row %d: %s ratio %v outside [0,1]", row, scheme, r)
			}
		}
		// The liveness contract: churn must never wedge a decision. A
		// non-zero count means a timeout, lease or repair path failed.
		if u := cell(row, "undecided"); u != 0 {
			t.Errorf("row %d: %v undecided jobs under churn", row, u)
		}
		// Membership always runs in E14, so control traffic is never zero.
		if c := cell(row, "control msgs"); c == 0 {
			t.Errorf("row %d: no control traffic despite armed membership", row)
		}
		churn := cell(row, "crashes")
		rejoin := tbl.Cell(row, col["rejoin"]) == "true"
		// Survivors must always converge on one membership view (and hence
		// one route epoch) by the time the run drains.
		if v := cell(row, "views"); v != 1 {
			t.Errorf("row %d: %v distinct survivor views, want 1 (converged)", row, v)
		}
		if churn == 0 {
			if d := cell(row, "deaths"); d != 0 {
				t.Errorf("control row applied %v deaths", d)
			}
			if d := cell(row, "disrupted"); d != 0 {
				t.Errorf("control row recorded %v disruptions", d)
			}
		} else {
			if d := cell(row, "deaths"); d == 0 {
				t.Errorf("row %d: crashes were never detected", row)
			}
		}
		if rejoin && cell(row, "resurrect") == 0 {
			t.Errorf("row %d: rejoin run applied no resurrections", row)
		}
		if !rejoin && cell(row, "resurrect") != 0 {
			t.Errorf("row %d: permanent-crash run resurrected someone", row)
		}
	}
}
