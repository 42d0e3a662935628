package experiments

import (
	"strings"
	"testing"
)

// TestE13PolicyMatrixInvariants runs the quick policy matrix and checks the
// structural invariants of the sweep: full coverage of the combo grid over
// all three topologies, ratios inside [0, 1], and the hard cap the
// k-redundant enrollment policy puts on the mean ACS (k members plus the
// initiator).
func TestE13PolicyMatrixInvariants(t *testing.T) {
	tbl := runNamed(t, "E13-policy-matrix", 3)
	wantRows := len(e13Topos) * len(e13Combos())
	if tbl.NumRows() != wantRows {
		t.Fatalf("%d rows, want %d (topologies × combos)", tbl.NumRows(), wantRows)
	}
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	seenTopo := map[string]int{}
	for row := 0; row < tbl.NumRows(); row++ {
		fields := strings.Fields(lines[3+row])
		seenTopo[fields[0]]++
		ratio := parse(t, tbl, row, 4)
		if ratio < 0 || ratio > 1 {
			t.Fatalf("row %d: guarantee ratio %v outside [0,1]", row, ratio)
		}
		if enroll := fields[3]; strings.HasPrefix(enroll, "k-redundant-6") {
			if acs := parse(t, tbl, row, 7); acs > 7+1e-9 {
				t.Fatalf("row %d: mean ACS %v exceeds k+1=7 under %s", row, acs, enroll)
			}
		}
	}
	for _, topo := range e13Topos {
		if seenTopo[string(topo)] != len(e13Combos()) {
			t.Fatalf("topology %s has %d rows, want %d", topo, seenTopo[string(topo)], len(e13Combos()))
		}
	}
}
