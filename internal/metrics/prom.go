package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the Prometheus half of the package: a small, stdlib-only
// metric registry whose exposition follows the Prometheus text format
// (version 0.0.4). It exists so the gateway and the node control plane can
// serve GET /metrics without importing a client library the build container
// does not have. Only the features the repo needs are implemented: counters,
// gauges, fixed-bucket histograms, label vectors with pre-declared label
// names, and deterministic rendering (families and label sets in sorted
// order, so two scrapes of the same state are byte-identical).

// MetricKind is the TYPE line of a family: counter, gauge or histogram.
type MetricKind string

// The three exposition kinds the registry supports.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Registry holds metric families and renders them in the Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order is irrelevant; rendering sorts
}

// family is one named metric family: TYPE, HELP and its children keyed by
// the canonical label-value tuple.
type family struct {
	name       string
	help       string
	kind       MetricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]child
	keys     []string
}

type child interface {
	render(w *bufio.Writer, fam *family, labels string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind MetricKind, labelNames []string, buckets []float64) *family {
	if name == "" || !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validLabelName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    buckets,
		children:   make(map[string]child),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Names returns every registered family name in sorted order. The docs
// coverage test uses it to enforce that each exported metric appears in
// docs/metrics.md.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

// NewCounter registers a label-less counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.counter(nil)
}

// NewCounterVec registers a counter family with the given label names;
// children are created on first With.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, labelNames, nil)}
}

// NewGauge registers a label-less gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.gauge(nil)
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, labelNames, nil)}
}

// NewHistogram registers a label-less histogram with the given upper
// bucket bounds (strictly increasing; the +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, KindHistogram, nil, checkBuckets(name, buckets))
	return f.histogram(nil)
}

// AddHistogram registers a label-less histogram of observations counted
// elsewhere: counts[i] of them at most buckets[i] and above the bound
// before it, counts[len(buckets)] above every bound, summing to sum.
func (r *Registry) AddHistogram(name, help string, buckets []float64, counts []int, sum float64) {
	if len(counts) != len(buckets)+1 {
		panic(fmt.Sprintf("metrics: histogram %q has %d counts for %d buckets", name, len(counts), len(buckets)))
	}
	h := r.NewHistogram(name, help, buckets)
	for i, n := range counts {
		h.count += uint64(n)
		if i < len(buckets) {
			h.counts[i] = h.count
		}
	}
	h.sum = sum
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing", name))
		}
	}
	return append([]float64(nil), buckets...)
}

// DefaultLatencyBuckets are the seconds-scale buckets the gateway's latency
// histograms use: 100µs to ~10s in roughly 3x steps.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// ---------------------------------------------------------------------------
// children

// Counter is a monotonically increasing value.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic (counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("metrics: counter decreased")
	}
	addFloat(&c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) render(w *bufio.Writer, fam *family, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, labels, formatValue(c.Value()))
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(w *bufio.Writer, fam *family, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, labels, formatValue(g.Value()))
}

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, shared with the family
	counts  []uint64  // one per bound; +Inf is implicit in count
	count   uint64
	sum     float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile (0 < q <= 1) from the cumulative
// buckets: the upper bound of the first bucket whose cumulative count
// reaches q·count. It is the scrape-side estimate dashboards would compute;
// the gateway bench records it as p50/p99.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	for i, c := range h.counts {
		if c >= rank {
			return h.buckets[i]
		}
	}
	return math.Inf(1)
}

func (h *Histogram) render(w *bufio.Writer, fam *family, labels string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	count, sum := h.count, h.sum
	h.mu.Unlock()
	for i, ub := range fam.buckets {
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, mergeLabels(labels, "le", formatValue(ub)), counts[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, mergeLabels(labels, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, labels, formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, labels, count)
}

// ---------------------------------------------------------------------------
// vectors

// CounterVec is a counter family indexed by label values.
type CounterVec struct{ fam *family }

// With returns the child counter for the given label values (created on
// first use). The number of values must match the declared label names.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.counter(labelValues)
}

// GaugeVec is a gauge family indexed by label values.
type GaugeVec struct{ fam *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.gauge(labelValues)
}

func (f *family) child(labelValues []string, make func() child) child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := renderLabels(f.labelNames, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.keys = append(f.keys, key)
	return c
}

func (f *family) counter(labelValues []string) *Counter {
	return f.child(labelValues, func() child { return new(Counter) }).(*Counter)
}

func (f *family) gauge(labelValues []string) *Gauge {
	return f.child(labelValues, func() child { return new(Gauge) }).(*Gauge)
}

func (f *family) histogram(labelValues []string) *Histogram {
	return f.child(labelValues, func() child {
		return &Histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets))}
	}).(*Histogram)
}

// ---------------------------------------------------------------------------
// exposition

// WriteTo renders every family in the Prometheus text format, families and
// label sets in sorted order. Families with no children yet are rendered
// with HELP/TYPE only, so a scrape documents every metric the process can
// export even before the first event.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)
	counting := &countingWriter{w: w}
	bw := bufio.NewWriter(counting)
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		sort.Strings(keys)
		for _, k := range keys {
			f.children[k].render(bw, f, k)
		}
		f.mu.Unlock()
	}
	err := bw.Flush()
	return counting.n, err
}

// ContentType is the Content-Type header value of a Prometheus text-format
// exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Expose renders the registry to a string (test and bench convenience).
func (r *Registry) Expose() string {
	var sb strings.Builder
	r.WriteTo(&sb)
	return sb.String()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// renderLabels renders a canonical label block: {a="x",b="y"} with the
// names in declaration order (already fixed per family), or "" for none.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// mergeLabels inserts one extra label (the histogram "le") into an existing
// rendered label block.
func mergeLabels(labels, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func validMetricName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// text-format parsing

// Series is one sample line of a text exposition. A histogram's samples
// keep their _bucket, _sum or _count suffix in Name, and a bucket's bound
// is its "le" label.
type Series struct {
	Name   string
	Labels map[string]string // nil when the line has no label block
	Value  float64
}

// ParseText parses data as Prometheus text format 0.0.4 and returns its
// samples in order. It checks HELP/TYPE comment syntax, known TYPE values,
// sample lines of the form name{label="value",...} value [timestamp] whose
// names are legal and whose values parse as floats, histogram samples that
// carry a _bucket/_sum/_count suffix, and that something is exposed at
// all. rtds-load and the tests read every /metrics response through it.
func ParseText(data []byte) ([]Series, error) {
	types := make(map[string]MetricKind)
	var out []Series
	sawAnything := false
	for i, line := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Other comments are allowed by the format.
				continue
			}
			name := fields[2]
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q in %s", lineNo, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE without a kind", lineNo)
				}
				kind := MetricKind(strings.TrimSpace(fields[3]))
				switch kind {
				case KindCounter, KindGauge, KindHistogram, "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, kind)
				}
				types[name] = kind
			}
			sawAnything = true
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if types[s.Name] == KindHistogram {
			return nil, fmt.Errorf("line %d: histogram %s sampled without _bucket/_sum/_count suffix", lineNo, s.Name)
		}
		out = append(out, s)
		sawAnything = true
	}
	if !sawAnything {
		return nil, fmt.Errorf("metrics: empty exposition")
	}
	return out, nil
}

// ValidateText checks that data parses as Prometheus text format 0.0.4; see
// ParseText for what is checked.
func ValidateText(data []byte) error {
	_, err := ParseText(data)
	return err
}

// parseSample parses one sample line: name, optional label block, value and
// optional timestamp.
func parseSample(line string) (Series, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return Series{}, fmt.Errorf("sample line %q has no value", line)
	}
	s := Series{Name: line[:i]}
	if !validMetricName(s.Name) {
		return Series{}, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return Series{}, fmt.Errorf("%w in %q", err, line)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return Series{}, fmt.Errorf("expected value [timestamp], got %q", strings.TrimSpace(rest))
	}
	v, err := parseSampleValue(fields[0])
	if err != nil {
		return Series{}, fmt.Errorf("bad sample value %q", fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels reads a label block from just after its opening brace:
// name="value" pairs separated by commas (a trailing comma is allowed),
// values quoted and escaped as Go strings are (the format's \\, \" and \n
// escapes are Go's). It returns the labels and what follows the brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " ")
		if rest, ok := strings.CutPrefix(s, "}"); ok {
			return labels, rest, nil
		}
		name, rest, ok := strings.Cut(s, "=")
		name = strings.TrimSpace(name)
		if !ok || !validLabelName(name) {
			return nil, "", fmt.Errorf("bad label name in block")
		}
		rest = strings.TrimLeft(rest, " ")
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil || quoted[0] != '"' {
			return nil, "", fmt.Errorf("label %s has no quoted value", name)
		}
		labels[name], _ = strconv.Unquote(quoted)
		s, ok = strings.CutPrefix(strings.TrimLeft(rest[len(quoted):], " "), ",")
		if !ok && !strings.HasPrefix(s, "}") {
			return nil, "", fmt.Errorf("unterminated label block")
		}
	}
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// addFloat is an atomic float64 add over a uint64 bit store.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}
