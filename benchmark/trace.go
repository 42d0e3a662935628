package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/policy"
	"repro/internal/dag"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/simnet"
)

// Tracing is done from outside the program: decorators around the public
// extension points (simnet.Transport, policy.Set, gateway.Backend,
// http.Handler) record a span at each layer boundary. Spans stay in memory
// and are written out when the traced run ends; the untraced run has none of
// this in its path.

// span is one timed interval at a layer boundary. Spans of one job share
// Job (the cluster id, "j3@7") and, where the gateway is involved, GW (the
// gateway id, "g17"); Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // unix nanoseconds
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	GW     string `json:"gw,omitempty"`
	Site   int    `json:"site"`
}

// spanLog collects spans from any goroutine.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// appendTo appends the spans to a JSON-lines file, creating it if needed.
func (l *spanLog) appendTo(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// simnet.Transport decorator

// payloadJob reports the job a protocol message belongs to ("" for routing
// and membership traffic), looking through the hop-by-hop wrapper.
func payloadJob(p simnet.Payload) string {
	if r, ok := p.(core.Routed); ok {
		p = r.Inner
	}
	switch m := p.(type) {
	case core.EnrollReq:
		return m.Job
	case core.EnrollAck:
		return m.Job
	case core.ValidateReq:
		return m.Job
	case core.ValidateAck:
		return m.Job
	case core.CommitMsg:
		return m.Job
	case core.CommitAck:
		return m.Job
	case core.UnlockMsg:
		return m.Job
	case core.UnlockAck:
		return m.Job
	case core.ResultMsg:
		return m.Job
	case core.DoneMsg:
		return m.Job
	}
	return ""
}

// handleKind maps a Payload.Kind() to its core.handle_us.* column ("" for
// kinds that are not reported: the bootstrap's table exchange).
func handleKind(kind string) string {
	switch {
	case strings.HasPrefix(kind, "member."):
		return "member"
	case kind == "rtds.unlock-ack":
		return "unlock"
	case strings.HasPrefix(kind, "rtds."):
		return strings.TrimPrefix(kind, "rtds.")
	}
	return ""
}

// transportStats is what the timedTransports of one process accumulate.
type transportStats struct {
	mu      sync.Mutex
	handle  map[string]*sample // by handleKind, microseconds
	calls   int                // job-carrying handler invocations
	send    sample             // microseconds
	payload []simnet.Payload   // a bounded reservoir of sent payloads, for the codec replay
}

func newTransportStats() *transportStats {
	return &transportStats{handle: make(map[string]*sample)}
}

// payloadReservoir bounds the sent payloads kept for the codec replay.
const payloadReservoir = 4096

// timedTransport wraps a site's transport: it times the attached handler
// and Send, and records one span per handler invocation.
type timedTransport struct {
	simnet.Transport
	site  graph.NodeID
	stats *transportStats
	spans *spanLog
}

func (t *timedTransport) Attach(id graph.NodeID, h simnet.Handler) {
	t.Transport.Attach(id, func(from graph.NodeID, p simnet.Payload) {
		start := time.Now()
		h(from, p)
		end := time.Now()
		kind, job := handleKind(p.Kind()), payloadJob(p)
		if kind == "" {
			return
		}
		t.stats.mu.Lock()
		s := t.stats.handle[kind]
		if s == nil {
			s = &sample{}
			t.stats.handle[kind] = s
		}
		s.addDur(end.Sub(start), time.Microsecond)
		if job != "" {
			t.stats.calls++
		}
		t.stats.mu.Unlock()
		if job != "" {
			t.spans.add(span{
				Name: "core.handle." + kind, Start: start.UnixNano(), End: end.UnixNano(),
				Parent: "nodeapi.submit", Job: job, Site: int(t.site),
			})
		}
	})
}

func (t *timedTransport) Send(from, to graph.NodeID, p simnet.Payload) error {
	start := time.Now()
	err := t.Transport.Send(from, to, p)
	d := time.Since(start)
	t.stats.mu.Lock()
	t.stats.send.addDur(d, time.Microsecond)
	if len(t.stats.payload) < payloadReservoir {
		t.stats.payload = append(t.stats.payload, p)
	}
	t.stats.mu.Unlock()
	return err
}

// ---------------------------------------------------------------------------
// policy decorators

// policyStats is what the timed policies of one process accumulate.
type policyStats struct {
	mu        sync.Mutex
	localTest sample // microseconds
	enrollSet sample // microseconds
}

// timedAcceptance times the local guarantee test. It keeps the wrapped
// policy's name, so tables and reports do not change.
type timedAcceptance struct {
	inner policy.Acceptance
	stats *policyStats
}

func (a timedAcceptance) Name() string { return a.inner.Name() }

func (a timedAcceptance) LocalTest(plan schedule.Plan, now float64, jobID string, g *dag.Graph, arrival, deadline, power float64) (*schedule.Ticket, bool) {
	start := time.Now()
	tk, ok := a.inner.LocalTest(plan, now, jobID, g, arrival, deadline, power)
	d := time.Since(start)
	a.stats.mu.Lock()
	a.stats.localTest.addDur(d, time.Microsecond)
	a.stats.mu.Unlock()
	return tk, ok
}

// timedSphere times the enrollment fan-out selection.
type timedSphere struct {
	inner policy.Sphere
	stats *policyStats
}

func (s timedSphere) Name() string { return s.inner.Name() }

func (s timedSphere) EnrollSet(pcs []graph.NodeID, dist func(graph.NodeID) float64) []graph.NodeID {
	start := time.Now()
	out := s.inner.EnrollSet(pcs, dist)
	d := time.Since(start)
	s.stats.mu.Lock()
	s.stats.enrollSet.addDur(d, time.Microsecond)
	s.stats.mu.Unlock()
	return out
}

// tracePolicies wraps a configuration's acceptance and sphere policies,
// resolving nil fields to the defaults core itself would pick.
func tracePolicies(cfg *core.Config, stats *policyStats) {
	acc := cfg.Policies.Acceptance
	if acc == nil {
		acc = policy.EDF{}
	}
	sph := cfg.Policies.Sphere
	if sph == nil {
		if cfg.Hier {
			sph = policy.HierSphere{}
		} else {
			sph = policy.FullSphere{}
		}
	}
	cfg.Policies.Acceptance = timedAcceptance{inner: acc, stats: stats}
	cfg.Policies.Sphere = timedSphere{inner: sph, stats: stats}
}

func (p *policyStats) metrics(m metricSet, jobs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m["core.policy.local_test_us"] = p.localTest.mean()
	m["core.policy.enroll_set_us"] = p.enrollSet.mean()
	if jobs > 0 {
		m["core.policy.local_test_calls_per_job"] = float64(p.localTest.n()) / float64(jobs)
	}
}

// ---------------------------------------------------------------------------
// gateway.Backend decorator

// backendStats is what a timedBackend accumulates; the series are in call
// order so growth over the run can be read off them.
type backendStats struct {
	mu        sync.Mutex
	forward   sample    // milliseconds
	decisions []float64 // milliseconds, in call order
	stats     sample    // milliseconds
}

// timedBackend wraps the gateway's view of the cluster.
type timedBackend struct {
	inner gateway.Backend
	stats *backendStats
	spans *spanLog
}

func (b *timedBackend) Submit(at, deadline float64, g json.RawMessage) (string, error) {
	start := time.Now()
	id, err := b.inner.Submit(at, deadline, g)
	end := time.Now()
	b.stats.mu.Lock()
	b.stats.forward.addDur(end.Sub(start), time.Millisecond)
	b.stats.mu.Unlock()
	b.spans.add(span{Name: "gateway.forward", Start: start.UnixNano(), End: end.UnixNano(),
		Parent: "client.submit", Job: id, Site: -1})
	return id, err
}

func (b *timedBackend) Decisions() (map[string]gateway.BackendDecision, error) {
	start := time.Now()
	out, err := b.inner.Decisions()
	end := time.Now()
	b.stats.mu.Lock()
	b.stats.decisions = append(b.stats.decisions, float64(end.Sub(start))/float64(time.Millisecond))
	b.stats.mu.Unlock()
	b.spans.add(span{Name: "gateway.poll_decisions", Start: start.UnixNano(), End: end.UnixNano(), Site: -1})
	return out, err
}

func (b *timedBackend) Stats() (gateway.BackendStats, error) {
	start := time.Now()
	out, err := b.inner.Stats()
	d := time.Since(start)
	b.stats.mu.Lock()
	b.stats.stats.addDur(d, time.Millisecond)
	b.stats.mu.Unlock()
	return out, err
}

func (s *backendStats) metrics(m metricSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["gateway.forward_ms.p50"] = s.forward.median()
	dec := sample{v: append([]float64(nil), s.decisions...)}
	m["gateway.poll_decisions_ms.p50"] = dec.median()
	m["gateway.poll_growth"] = growth(s.decisions)
	m["gateway.poll_stats_ms.p50"] = s.stats.median()
}

// ---------------------------------------------------------------------------
// http.Handler middleware for a node's control API

// apiStats is what the middlewares of one process accumulate.
type apiStats struct {
	mu       sync.Mutex
	submit   sample    // milliseconds
	jobs     []float64 // milliseconds, in call order
	jobsKB   []float64 // response size, in call order
	statsReq sample    // milliseconds
}

// captureWriter records the response size and, for /submit, the body.
type captureWriter struct {
	http.ResponseWriter
	n    int
	keep bool
	body bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.keep {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// traceAPI wraps a node's control-plane handler.
func traceAPI(site int, next http.Handler, stats *apiStats, spans *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &captureWriter{ResponseWriter: w, keep: r.URL.Path == "/submit"}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		ms := float64(end.Sub(start)) / float64(time.Millisecond)
		stats.mu.Lock()
		switch r.URL.Path {
		case "/submit":
			stats.submit.add(ms)
		case "/jobs":
			stats.jobs = append(stats.jobs, ms)
			stats.jobsKB = append(stats.jobsKB, float64(cw.n)/1024)
		case "/stats":
			stats.statsReq.add(ms)
		}
		stats.mu.Unlock()
		if cw.keep {
			var reply struct {
				ID string `json:"id"`
			}
			// A refused submission has no id; its span is still recorded.
			_ = json.Unmarshal(cw.body.Bytes(), &reply)
			spans.add(span{Name: "nodeapi.submit", Start: start.UnixNano(), End: end.UnixNano(),
				Parent: "gateway.forward", Job: reply.ID, Site: site})
		}
	})
}

func (s *apiStats) metrics(m metricSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["nodeapi.submit_ms.p50"] = s.submit.median()
	jobs := sample{v: append([]float64(nil), s.jobs...)}
	m["nodeapi.jobs_ms.p50"] = jobs.median()
	m["nodeapi.jobs_growth"] = growth(s.jobs)
	if q := len(s.jobsKB) / 4; q > 0 {
		last := sample{v: append([]float64(nil), s.jobsKB[len(s.jobsKB)-q:]...)}
		m["nodeapi.jobs_resp_kb_end"] = last.median()
	}
	m["nodeapi.stats_ms.p50"] = s.statsReq.median()
}
