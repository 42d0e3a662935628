package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the Prometheus half of the package: a builder that renders
// values in the Prometheus text format (version 0.0.4), and the parser that
// reads such text back. It exists so the gateway and the node control plane
// can serve GET /metrics without importing a client library the build
// container does not have. Nothing here is live: a scrape builds a fresh
// Builder from the state its server already keeps, renders it and drops it,
// so there is no second set of counters to keep in step with that state.
// Rendering is deterministic (families and label sets in sorted order), so
// two scrapes of the same state are byte-identical.

// MetricKind is the TYPE line of a family: counter, gauge or histogram.
type MetricKind string

// The three exposition kinds the builder supports.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Builder assembles one exposition from values read at scrape time. It is
// used by one goroutine; the zero value is ready to use.
type Builder struct {
	families []*Family
}

// Family is one named metric family of a Builder: TYPE, HELP and one
// sample per label set.
type Family struct {
	name       string
	help       string
	kind       MetricKind
	labelNames []string
	samples    []sample
	bounds     []float64 // histograms only
}

// sample is one label set of a family and its value: a histogram's sum,
// with its cumulative bucket counts (the last one is the +Inf bucket, the
// count).
type sample struct {
	labels     string // the rendered label block, the sort key
	value      float64
	cumulative []int
}

// Family declares a family whose samples are labelled with labelNames and
// returns it to take them (Set). A family with no sample renders its HELP
// and TYPE only, so a scrape documents every metric the process can export
// even before the first event.
func (b *Builder) Family(kind MetricKind, name, help string, labelNames ...string) *Family {
	if name == "" || !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validLabelName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	for _, f := range b.families {
		if f.name == name {
			panic(fmt.Sprintf("metrics: duplicate family %q", name))
		}
	}
	f := &Family{name: name, help: help, kind: kind, labelNames: labelNames}
	b.families = append(b.families, f)
	return f
}

// Set adds the sample of one label set, its values in the order of the
// family's label names. A counter's value is never negative.
func (f *Family) Set(v float64, labelValues ...string) {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	if f.kind == KindCounter && v < 0 {
		panic(fmt.Sprintf("metrics: counter %s is negative", f.name))
	}
	f.samples = append(f.samples, sample{labels: renderLabels(f.labelNames, labelValues), value: v})
}

// Counter adds a label-less counter.
func (b *Builder) Counter(name, help string, v float64) {
	b.Family(KindCounter, name, help).Set(v)
}

// Gauge adds a label-less gauge.
func (b *Builder) Gauge(name, help string, v float64) {
	b.Family(KindGauge, name, help).Set(v)
}

// Histogram adds a label-less histogram of observations counted elsewhere.
// It copies what it renders, so h may change once Histogram returns.
func (b *Builder) Histogram(name, help string, h Histogram) {
	if len(h.Bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(h.Bounds); i++ {
		if h.Bounds[i] <= h.Bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing", name))
		}
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		panic(fmt.Sprintf("metrics: histogram %q has %d counts for %d buckets", name, len(h.Counts), len(h.Bounds)))
	}
	f := b.Family(KindHistogram, name, help)
	f.bounds = append([]float64(nil), h.Bounds...)
	cumulative := make([]int, len(h.Counts))
	n := 0
	for i, c := range h.Counts {
		n += c
		cumulative[i] = n
	}
	f.samples = append(f.samples, sample{value: h.Sum, cumulative: cumulative})
}

// Histogram counts observations into fixed buckets. It is a plain value:
// its owner guards it, and a scrape hands it to Builder.Histogram.
type Histogram struct {
	// Bounds are the buckets' upper bounds, strictly increasing; the +Inf
	// bucket is implicit.
	Bounds []float64
	// Counts[i] is the number of observations at most Bounds[i] and above
	// the bound before it; Counts[len(Bounds)] those above every bound.
	Counts []int
	// Sum is the sum of the observations.
	Sum float64
}

// NewHistogram returns an empty histogram over bounds.
func NewHistogram(bounds []float64) Histogram {
	return Histogram{Bounds: bounds, Counts: make([]int, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.Counts[sort.SearchFloat64s(h.Bounds, v)]++
	h.Sum += v
}

// DefaultLatencyBuckets are the seconds-scale buckets the gateway's latency
// histograms use: 100µs to ~10s in roughly 3x steps.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// Names returns every family name in sorted order. The docs coverage test
// uses it to enforce that each exported metric appears in docs/metrics.md.
func (b *Builder) Names() []string {
	out := make([]string, len(b.families))
	for i, f := range b.families {
		out[i] = f.name
	}
	sort.Strings(out)
	return out
}

// WriteTo renders every family in the Prometheus text format, families and
// label sets in sorted order.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	sort.Slice(b.families, func(i, j int) bool { return b.families[i].name < b.families[j].name })
	counting := &countingWriter{w: w}
	bw := bufio.NewWriter(counting)
	for _, f := range b.families {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		for _, s := range f.samples {
			if f.kind != KindHistogram {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
				continue
			}
			for i, ub := range f.bounds {
				fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", f.name, formatValue(ub), s.cumulative[i])
			}
			count := s.cumulative[len(f.bounds)]
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", f.name, count)
			fmt.Fprintf(bw, "%s_sum %s\n", f.name, formatValue(s.value))
			fmt.Fprintf(bw, "%s_count %d\n", f.name, count)
		}
	}
	err := bw.Flush()
	return counting.n, err
}

// ContentType is the Content-Type header value of a Prometheus text-format
// exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Expose renders the exposition to a string (tests and debugging).
func (b *Builder) Expose() string {
	var sb strings.Builder
	b.WriteTo(&sb)
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
// names are legal, whose values parse as floats and whose timestamps as
// integers, histogram samples that carry a _bucket/_sum/_count suffix, and
// that something is exposed at all. rtds-load and the tests read every /metrics response through it.
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
	// A timestamp is milliseconds since the epoch, an integer.
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return Series{}, fmt.Errorf("bad timestamp %q", fields[1])
		}
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
