package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample not zeroed")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean %v, want 5", s.Mean())
	}
	if s.Percentile(0) != 2 || s.Percentile(100) != 9 {
		t.Fatalf("range [%v,%v]", s.Percentile(0), s.Percentile(100))
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

// Property: the mean lies between the 0th and 100th percentiles.
func TestPropertySampleInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip inputs whose sum overflows float64
			}
			s.Add(v)
		}
		m := s.Mean()
		return m >= s.Percentile(0)-1e-9 && m <= s.Percentile(100)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
