package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("E1: guarantee ratio vs load", "load", "rtds", "local-only")
	tb.AddRow(0.2, 0.95, 0.8)
	tb.AddRow(0.4, 0.91, 0.62)
	tb.AddRow("1.0", 0.55, 0.31)
	if tb.NumRows() != 3 {
		t.Fatalf("rows %d", tb.NumRows())
	}
	s := tb.String()
	for _, frag := range []string{"E1: guarantee ratio vs load", "load", "0.950", "1.0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered table missing %q:\n%s", frag, s)
		}
	}
	// Alignment: all lines at least as wide as the header row's width.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 1+2+3 {
		t.Fatalf("line count %d", len(lines))
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| load | rtds | local-only |") {
		t.Errorf("markdown header wrong:\n%s", md)
	}
}

func TestFloatFormatting(t *testing.T) {
	if formatFloat(3) != "3" {
		t.Errorf("integral float formatted as %q", formatFloat(3))
	}
	if formatFloat(3.14159) != "3.142" {
		t.Errorf("float formatted as %q", formatFloat(3.14159))
	}
}
