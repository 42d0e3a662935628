package metrics

import (
	"math"
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
