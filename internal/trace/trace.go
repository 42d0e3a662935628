// Package trace renders schedules and topologies for humans: ASCII Gantt
// charts in the style of the paper's Figures 3 and 4, and Graphviz DOT for
// network topologies (internal/dag renders its own DOT).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Span is one bar of a Gantt chart.
type Span struct {
	Row   string // row label, e.g. "P1"
	Label string // bar label, e.g. "t3"
	Start float64
	End   float64
}

// Gantt renders spans as an ASCII chart, one row per distinct Row label
// (sorted), with a time axis. width is the number of character cells for
// the time range.
func Gantt(title string, spans []Span, width int) string {
	if width < 10 {
		width = 60
	}
	if len(spans) == 0 {
		return title + "\n(empty schedule)\n"
	}
	minT, maxT := math.Inf(1), math.Inf(-1)
	rows := map[string][]Span{}
	var rowNames []string
	for _, s := range spans {
		if _, ok := rows[s.Row]; !ok {
			rowNames = append(rowNames, s.Row)
		}
		rows[s.Row] = append(rows[s.Row], s)
		minT = math.Min(minT, s.Start)
		maxT = math.Max(maxT, s.End)
	}
	sort.Strings(rowNames)
	if maxT <= minT {
		maxT = minT + 1
	}
	scale := float64(width) / (maxT - minT)
	cell := func(t float64) int {
		c := int(math.Round((t - minT) * scale))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}

	labelWidth := 0
	for _, r := range rowNames {
		if len(r) > labelWidth {
			labelWidth = len(r)
		}
	}

	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	for _, r := range rowNames {
		line := make([]byte, width+1)
		for i := range line {
			line[i] = '.'
		}
		bars := rows[r]
		sort.Slice(bars, func(i, j int) bool { return bars[i].Start < bars[j].Start })
		for _, b := range bars {
			lo, hi := cell(b.Start), cell(b.End)
			if hi <= lo {
				hi = lo + 1
				if hi > width {
					lo, hi = width-1, width
				}
			}
			for i := lo; i < hi && i < len(line); i++ {
				line[i] = '#'
			}
			// Overlay the label inside the bar when it fits.
			if len(b.Label) > 0 && hi-lo >= len(b.Label) {
				copy(line[lo:], b.Label)
			}
		}
		fmt.Fprintf(&sb, "%-*s |%s|\n", labelWidth, r, string(line[:width]))
	}
	// Axis.
	fmt.Fprintf(&sb, "%-*s  %-*.6g%*.6g\n", labelWidth, "", width/2, minT, width-width/2, maxT)
	return sb.String()
}

// TopologyDOT renders a network topology as an undirected Graphviz graph
// with delay-labelled edges.
func TopologyDOT(name string, g *graph.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n  layout=neato;\n", name)
	for u := graph.NodeID(0); int(u) < g.Len(); u++ {
		fmt.Fprintf(&sb, "  %d [shape=circle];\n", u)
	}
	for u := graph.NodeID(0); int(u) < g.Len(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				fmt.Fprintf(&sb, "  %d -- %d [label=\"%.3g\"];\n", u, e.To, e.Delay)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// regionPalette cycles fill colors for RegionDOT. Graphviz X11 names,
// picked light so black node labels stay readable.
var regionPalette = []string{
	"lightblue", "lightpink", "lightgreen", "lightyellow", "lightsalmon",
	"lightcyan", "plum", "wheat", "palegreen", "lightgrey",
	"khaki", "thistle", "peachpuff", "powderblue", "mistyrose", "honeydew",
}

// RegionDOT renders a topology with its hierarchical region partition:
// nodes are filled by region (palette cycling past 16 regions),
// landmarks are drawn as doubled circles, and cross-region edges are
// dashed so the region boundary — which no route crosses — is visible at
// a glance. assign
// maps each node to its region; landmarks lists one elected site per
// region.
func RegionDOT(name string, g *graph.Graph, assign []int, landmarks []graph.NodeID) string {
	landmark := make(map[graph.NodeID]bool, len(landmarks))
	for _, l := range landmarks {
		landmark[l] = true
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n  layout=neato;\n", name)
	for u := graph.NodeID(0); int(u) < g.Len(); u++ {
		color := regionPalette[assign[u]%len(regionPalette)]
		shape := "circle"
		if landmark[u] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&sb, "  %d [shape=%s,style=filled,fillcolor=%q,label=\"%d/r%d\"];\n",
			u, shape, color, u, assign[u])
	}
	for u := graph.NodeID(0); int(u) < g.Len(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				style := ""
				if assign[u] != assign[e.To] {
					style = ",style=dashed"
				}
				fmt.Fprintf(&sb, "  %d -- %d [label=\"%.3g\"%s];\n", u, e.To, e.Delay, style)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
