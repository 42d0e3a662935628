package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.CI95() != 0 || s.N() != 0 {
		t.Fatal("empty sample not zeroed")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean %v, want 5", s.Mean())
	}
	// Sample stddev with n-1: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("stddev %v, want %v", s.StdDev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("range [%v,%v]", s.Min(), s.Max())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50, 95: 95, 100: 100}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

// Property: mean is within [min, max], CI is non-negative, stddev 0 for
// constant samples.
func TestPropertySampleInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip inputs whose sum overflows float64
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9 && s.CI95() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantSampleStdDevZero(t *testing.T) {
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(3.5)
	}
	if s.StdDev() != 0 || s.CI95() != 0 {
		t.Fatalf("constant sample stddev %v ci %v", s.StdDev(), s.CI95())
	}
}

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
