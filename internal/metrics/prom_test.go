package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests handled.")
	c.Add(3)
	cv := r.NewCounterVec("test_by_tenant_total", "Per-tenant submissions.", "tenant", "result")
	cv.With("acme", "accepted").Add(2)
	cv.With("zeta", "rejected").Inc()
	g := r.NewGauge("test_inflight", "Jobs in flight.")
	g.Set(5)
	g.Dec()
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(10)

	out := r.Expose()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		`test_by_tenant_total{tenant="acme",result="accepted"} 2`,
		`test_by_tenant_total{tenant="zeta",result="rejected"} 1`,
		"# TYPE test_inflight gauge",
		"test_inflight 4",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 10.505",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateText([]byte(out)); err != nil {
		t.Fatalf("own exposition fails validation: %v\n%s", err, out)
	}
}

// Two scrapes of the same state must be byte-identical: families and label
// sets render in sorted order regardless of registration or touch order.
func TestExpositionDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		v := r.NewCounterVec("det_total", "d", "k")
		r.NewGauge("det_gauge", "g").Set(1)
		for _, k := range order {
			v.With(k).Inc()
		}
		return r.Expose()
	}
	a := build([]string{"x", "y", "z"})
	b := build([]string{"z", "x", "y"})
	if a != b {
		t.Fatalf("exposition depends on touch order:\n%s\nvs\n%s", a, b)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_seconds", "q", []float64{1, 2, 4, 8})
	for i := 0; i < 99; i++ {
		h.Observe(1.5) // lands in le=2
	}
	h.Observe(7) // lands in le=8
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %v, want bucket bound 2", got)
	}
	if got := h.Quantile(0.995); got != 8 {
		t.Errorf("p99.5 = %v, want bucket bound 8", got)
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestValidateTextRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad name":       "9bad_name 1\n",
		"no value":       "lonely_metric\n",
		"bad value":      "m 1.2.3\n",
		"bad type":       "# TYPE m sandwich\n",
		"unclosed block": "m{a=\"x\" 1\n",
		"histogram base": "# TYPE h histogram\nh 3\n",
	}
	for name, text := range cases {
		if err := ValidateText([]byte(text)); err == nil {
			t.Errorf("%s: ValidateText accepted %q", name, text)
		}
	}
	good := "# HELP m help text\n# TYPE m counter\nm{a=\"x\\\"y\"} 4 1712345678\n"
	if err := ValidateText([]byte(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

// ParseText reads back what WriteTo renders: every sample, its labels
// unescaped, and a histogram whose observations were counted elsewhere.
func TestParseTextReadsExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("p_total", "p", "kind").With(`a"b\c` + "\n").Add(3)
	r.NewGauge("p_gauge", "g").Set(-1.5)
	r.AddHistogram("p_seconds", "h", []float64{1, 2}, []int{0, 1, 1}, 8.5)
	series, err := ParseText([]byte(r.Expose()))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, s := range series {
		key := s.Name
		for _, l := range []string{"kind", "le"} {
			if v, ok := s.Labels[l]; ok {
				key += "/" + v
			}
		}
		got[key] = s.Value
	}
	want := map[string]float64{
		"p_total/a\"b\\c\n":  3,
		"p_gauge":            -1.5,
		"p_seconds_bucket/1": 0, "p_seconds_bucket/2": 1, "p_seconds_bucket/+Inf": 2,
		"p_seconds_sum": 8.5, "p_seconds_count": 2,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%q = %v (present %v), want %v", k, g, ok, v)
		}
	}
	for _, bad := range []string{`m{a="x",b} 1`, `m{a=x} 1`, `m{9a="x"} 1`, `m{a="x"`} {
		if _, err := ParseText([]byte(bad + "\n")); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

func TestCounterPanicsOnDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add did not panic")
		}
	}()
	r := NewRegistry()
	r.NewCounter("c_total", "c").Add(-1)
}

func TestVectorConcurrency(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("conc_total", "c", "worker")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With(string(rune('a' + w))).Inc()
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		if got := v.With(string(rune('a' + w))).Value(); got != 1000 {
			t.Errorf("worker %d count = %v, want 1000", w, got)
		}
	}
	if err := ValidateText([]byte(r.Expose())); err != nil {
		t.Fatal(err)
	}
}
