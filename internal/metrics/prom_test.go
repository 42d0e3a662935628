package metrics

import (
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	var b Builder
	b.Counter("test_requests_total", "Requests handled.", 3)
	cv := b.Family(KindCounter, "test_by_tenant_total", "Per-tenant submissions.", "tenant", "result")
	cv.Set(2, "acme", "accepted")
	cv.Set(1, "zeta", "rejected")
	b.Gauge("test_inflight", "Jobs in flight.", 4)
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.1, 0.5, 10} {
		h.Observe(v)
	}
	b.Histogram("test_latency_seconds", "Latency.", h)
	h.Observe(0.5) // the builder rendered a copy

	out := b.Expose()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		`test_by_tenant_total{tenant="acme",result="accepted"} 2`,
		`test_by_tenant_total{tenant="zeta",result="rejected"} 1`,
		"# TYPE test_inflight gauge",
		"test_inflight 4",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`, // a bound holds what equals it
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_sum 10.605",
		"test_latency_seconds_count 4",
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
// sets render in sorted order regardless of the order they were added in.
func TestExpositionDeterministic(t *testing.T) {
	build := func(order []string) string {
		var b Builder
		v := b.Family(KindCounter, "det_total", "d", "k")
		b.Gauge("det_gauge", "g", 1)
		b.Family(KindGauge, "det_empty", "e", "k")
		for _, k := range order {
			v.Set(1, k)
		}
		return b.Expose()
	}
	a := build([]string{"x", "y", "z"})
	if b := build([]string{"z", "x", "y"}); a != b {
		t.Fatalf("exposition depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "# TYPE det_empty gauge\n# HELP det_gauge") {
		t.Errorf("a family with no sample is not declared alone:\n%s", a)
	}
}

func TestValidateTextRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad name":        "9bad_name 1\n",
		"no value":        "lonely_metric\n",
		"bad value":       "m 1.2.3\n",
		"bad type":        "# TYPE m sandwich\n",
		"unclosed block":  "m{a=\"x\" 1\n",
		"histogram base":  "# TYPE h histogram\nh 3\n",
		"word timestamp":  "m 1 abc\n",
		"float timestamp": "m 1 1.5\n",
		"dash timestamp":  "m{a=\"x\"} 1 --\n",
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
	var b Builder
	b.Family(KindCounter, "p_total", "p", "kind").Set(3, `a"b\c`+"\n")
	b.Gauge("p_gauge", "g", -1.5)
	b.Histogram("p_seconds", "h", Histogram{Bounds: []float64{1, 2}, Counts: []int{0, 1, 1}, Sum: 8.5})
	series, err := ParseText([]byte(b.Expose()))
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

// A counter starts at zero and only goes up, so a negative one is a bug.
func TestCounterPanicsOnDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter did not panic")
		}
	}()
	var b Builder
	b.Counter("c_total", "c", -1)
}
