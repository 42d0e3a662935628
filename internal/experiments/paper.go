package experiments

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/mapper"
	"repro/internal/trace"
)

// PaperExampleDAG builds the Fig. 2 task graph: tasks 1..5 with
// c = (6, 4, 4, 2, 5) and edges {1→3, 2→3, 1→4, 3→5, 4→5}. The paper
// draws Fig. 2 without numbers, so both are read off Fig. 4: each task's
// complexity is its length in S* (surplus 1), and the edges are the ones
// that explain every start time in S* with ω = 3 between processors.
func PaperExampleDAG() *dag.Graph {
	return dag.NewBuilder("paper-fig2").
		SetWindow(0, 66).
		AddTask(1, 6).AddTask(2, 4).AddTask(3, 4).AddTask(4, 2).AddTask(5, 5).
		AddEdge(1, 3).AddEdge(2, 3).AddEdge(1, 4).AddEdge(3, 5).AddEdge(4, 5).
		MustBuild()
}

// PaperResult bundles the reproduction of the paper's §12 example.
type PaperResult struct {
	Graph      *dag.Graph
	Mapping    *mapper.TrialMapping
	GanttS     string // Fig. 3 rendering
	GanttSStar string // Fig. 4 rendering
	Table1     *Table
}

// PaperExample reproduces §12.1–12.2: the mapper runs on the Fig. 2 DAG
// with surpluses I1 = 0.5, I2 = 0.4, ACS delay diameter ω = 3, release 0
// and deadline 66.
func PaperExample() (*PaperResult, error) {
	g := PaperExampleDAG()
	procs := []mapper.ProcInfo{{Site: 1, Surplus: 0.5}, {Site: 2, Surplus: 0.4}}
	m, err := mapper.Build(g, procs, 3, 0, 66, mapper.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: paper example mapping failed: %w", err)
	}
	res := &PaperResult{Graph: g, Mapping: m}

	var spansS, spansStar []trace.Span
	for _, id := range g.TaskIDs() {
		a := m.Assign[id-1]
		row := fmt.Sprintf("p%d", a.Proc+1)
		label := fmt.Sprintf("t%d", id)
		spansS = append(spansS, trace.Span{Row: row, Label: label, Start: a.Start, End: a.Finish})
		spansStar = append(spansStar, trace.Span{Row: row, Label: label, Start: a.IdealStart, End: a.IdealFinish})
	}
	res.GanttS = trace.Gantt(fmt.Sprintf("Fig. 3 — schedule S computed by the Mapper (M = %g)", m.Makespan), spansS, 66)
	res.GanttSStar = trace.Gantt(fmt.Sprintf("Fig. 4 — schedule S* at 100%% surplus (M* = %g)", m.IdealMakespan), spansStar, 66)

	res.Table1 = paperTable(Full)
	addRows(res.Table1, table1Rows(g, m))
	return res, nil
}

// paperTable is Table 1's header. PaperExample and the suite's "paper"
// entry both build Table 1 from it and table1Rows.
func paperTable(Size) *Table {
	return NewTable("Table 1 — adjusted r(ti) and d(ti)", "ti", "ri", "di", "r(ti)", "d(ti)")
}

// table1Rows is Table 1: each task's window in S and its adjusted window.
func table1Rows(g *dag.Graph, m *mapper.TrialMapping) [][]any {
	var rows [][]any
	for _, id := range g.TaskIDs() {
		a := m.Assign[id-1]
		rows = append(rows, []any{int(id), a.Start, a.Finish, a.Release, a.Deadline})
	}
	return rows
}

// paperRows is the suite's one point of the paper example: it recomputes
// the example, verifies it against the paper's numbers and reports
// Table 1.
func paperRows(*runEnv, Size, int64, int) ([][]any, error) {
	paper, err := PaperExample()
	if err != nil {
		return nil, err
	}
	if err := VerifyPaperExample(paper); err != nil {
		return nil, fmt.Errorf("paper example mismatch: %w", err)
	}
	return table1Rows(paper.Graph, paper.Mapping), nil
}

// paperExpectations pins every number the paper reports for the example.
var paperExpectations = struct {
	s, sStar [][2]float64 // task id's window at id-1
	rd       [][2]float64
	m, mStar float64
}{
	s:     [][2]float64{{0, 12}, {0, 10}, {13, 21}, {15, 20}, {23, 33}},
	sStar: [][2]float64{{0, 6}, {0, 4}, {7, 11}, {9, 11}, {14, 19}},
	rd:    [][2]float64{{0, 24}, {0, 20}, {24, 42}, {27, 40}, {43, 66}},
	m:     33, mStar: 19,
}

// VerifyPaperExample checks the reproduction against the paper's published
// numbers (Figs. 3–4, Table 1, M = 33, M* = 19, scaling factor 2). It
// returns nil when every value matches exactly.
func VerifyPaperExample(r *PaperResult) error {
	const eps = 1e-9
	m := r.Mapping
	if math.Abs(m.Makespan-paperExpectations.m) > eps {
		return fmt.Errorf("M = %v, paper reports 33", m.Makespan)
	}
	if math.Abs(m.IdealMakespan-paperExpectations.mStar) > eps {
		return fmt.Errorf("M* = %v, paper reports 19", m.IdealMakespan)
	}
	if m.Case != mapper.CaseScale {
		return fmt.Errorf("adjustment case %v, paper's example is case (ii)", m.Case)
	}
	for i, want := range paperExpectations.s {
		id, a := i+1, m.Assign[i]
		if math.Abs(a.Start-want[0]) > eps || math.Abs(a.Finish-want[1]) > eps {
			return fmt.Errorf("S(t%d) = [%v,%v], paper reports [%v,%v]", id, a.Start, a.Finish, want[0], want[1])
		}
		if w := paperExpectations.sStar[i]; math.Abs(a.IdealStart-w[0]) > eps || math.Abs(a.IdealFinish-w[1]) > eps {
			return fmt.Errorf("S*(t%d) = [%v,%v], paper reports [%v,%v]", id, a.IdealStart, a.IdealFinish, w[0], w[1])
		}
		w := paperExpectations.rd[i]
		if math.Abs(a.Release-w[0]) > eps {
			return fmt.Errorf("r(t%d) = %v, Table 1 reports %v", id, a.Release, w[0])
		}
		if math.Abs(a.Deadline-w[1]) > eps {
			return fmt.Errorf("d(t%d) = %v, Table 1 reports %v", id, a.Deadline, w[1])
		}
	}
	return nil
}
