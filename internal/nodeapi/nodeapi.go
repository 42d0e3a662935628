// Package nodeapi is the control and observability plane of one deployed
// RTDS site (cmd/rtds-node): a small JSON-over-HTTP API for job
// submission, decision return and leak checking, plus one statistics
// snapshot (decision-latency percentiles from internal/metrics, transport
// counters) in two encodings: JSON on /stats for the gateway and the load
// harness, Prometheus text on /metrics for dashboards.
//
// Decisions return through the node's decision journal (core.Node's
// DecidedSince): GET /jobs?since=<cursor>&boot=<token> answers with the
// decisions made after the cursor, in decision order, and with wait=<d> it
// holds the request until the next decision or the timeout, so a reader that
// keeps its cursor learns of a decision when it is made and pays for new
// decisions only. The boot token names this process: a reader whose token
// is stale (the node restarted, its journal is empty) is restarted at 0.
// /stats and /metrics render one fold of the same journal. GET /jobs
// without a cursor still returns the whole history (summaries, leak checks).
//
// Endpoints:
//
//	GET  /healthz       process liveness
//	GET  /readyz        200 once the PCS bootstrap completed and the epoch is sealed
//	POST /submit        {"at":0,"deadline":40,"graph":{dag json}} -> {"id":"j1@3"}
//	GET  /jobs          {"jobs":[{id,outcome,arrival,decision_at,...}]}
//	GET  /jobs?since=N&boot=T[&wait=800ms]
//	                    {"boot":T,"next":M,"jobs":[the decisions N..M-1]}
//	GET  /stats         transport counters + decision-latency percentiles
//	GET  /reservations  {"jobs":["j1@3",...]} — job IDs with committed plan reservations
//	GET  /idle          {"idle":true} — lock released, no deferred work, no open txns
//	GET  /membership    membership view: epoch, incarnation, per-site liveness, repair state
//	GET  /metrics       Prometheus text exposition (see docs/metrics.md)
package nodeapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Server serves the control API of one core.Node.
type Server struct {
	node  *core.Node
	ready atomic.Bool
	mux   *http.ServeMux

	boot        string        // names this process to journal readers
	release     chan struct{} // closed by ReleaseWaiters
	releaseOnce sync.Once

	// What /stats knows of the decision journal so far.
	statsMu  sync.Mutex
	cursor   int
	decided  int
	accepted int
	latency  metrics.SortedSample
}

// maxWait bounds how long GET /jobs?since= holds a request open. It stays
// well under a second-scale client timeout and under the patience of
// http.Server.Shutdown, which waits for handlers and does not cancel them.
const maxWait = time.Second

// maxTail bounds the decisions in one GET /jobs?since= reply (about 1 MB of
// JSON), so that a reader starting from 0 on a long history pages through
// it instead of asking for a reply it cannot hold.
const maxTail = 4096

// New builds the API server for a node. Call SetReady once the node's
// bootstrap has been sealed.
func New(node *core.Node) *Server {
	s := &Server{
		node:    node,
		mux:     http.NewServeMux(),
		boot:    strconv.FormatInt(time.Now().UnixNano(), 36),
		release: make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "bootstrapping", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("POST /submit", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobs)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /reservations", s.handleReservations)
	s.mux.HandleFunc("GET /idle", s.handleIdle)
	s.mux.HandleFunc("GET /membership", s.handleMembership)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetReady marks the node ready (bootstrap sealed); /readyz flips to 200
// and submissions are accepted.
func (s *Server) SetReady() { s.ready.Store(true) }

// SubmitRequest is the body of POST /submit. The graph uses the dag
// package's JSON schema; At is epoch-relative virtual time (0 = now) and
// Deadline is relative to arrival.
type SubmitRequest struct {
	At       float64         `json:"at"`
	Deadline float64         `json:"deadline"`
	Graph    json.RawMessage `json:"graph"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "node is still bootstrapping", http.StatusServiceUnavailable)
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxJobJSON)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	g, err := dag.UnmarshalGraph(req.Graph)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.node.Submit(req.At, g, req.Deadline)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]string{"id": job.ID})
}

// ReleaseWaiters makes every held (and future) GET /jobs?wait= return at
// once. Register it with http.Server.RegisterOnShutdown: Shutdown waits for
// in-flight handlers, and a long-poll would otherwise delay it by its wait.
func (s *Server) ReleaseWaiters() { s.releaseOnce.Do(func() { close(s.release) }) }

// JournalReply is the GET /jobs?since= schema.
type JournalReply struct {
	// Boot names the answering process; send it back with the next read.
	Boot string `json:"boot"`
	// Next is the cursor to send with the next read.
	Next int `json:"next"`
	// Jobs are the decisions made after the request's cursor, in decision
	// order (empty, not null, when there are none).
	Jobs []core.JobStatus `json:"jobs"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if !q.Has("since") {
		writeJSON(w, map[string]any{"jobs": s.node.JobStatuses()})
		return
	}
	cursor, err := strconv.Atoi(q.Get("since"))
	if err != nil || cursor < 0 {
		http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
		return
	}
	if q.Get("boot") != s.boot {
		cursor = 0 // the reader's cursor counted another process's journal
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		if wait, err = time.ParseDuration(v); err != nil || wait < 0 {
			http.Error(w, "wait must be a non-negative duration such as 800ms", http.StatusBadRequest)
			return
		}
		wait = min(wait, maxWait)
	}
	tail, next, wake := s.node.DecidedSince(cursor, maxTail)
	if len(tail) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-wake:
			tail, next, _ = s.node.DecidedSince(cursor, maxTail)
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.release:
		}
	}
	writeJSON(w, JournalReply{Boot: s.boot, Next: next, Jobs: tail})
}

// StatsReply is the GET /stats schema.
type StatsReply struct {
	Site               int              `json:"site"`
	Ready              bool             `json:"ready"`
	Messages           int64            `json:"messages"`
	Bytes              int64            `json:"bytes"`
	Dropped            int64            `json:"dropped"`
	ByKind             map[string]int64 `json:"by_kind,omitempty"`
	BootstrapMessages  int64            `json:"bootstrap_messages"`
	BootstrapBytes     int64            `json:"bootstrap_bytes"`
	Jobs               int              `json:"jobs"`
	Decided            int              `json:"decided"`
	Accepted           int              `json:"accepted"`
	Violations         int              `json:"violations"`
	Disruptions        int              `json:"disruptions"`
	DecisionLatencyP50 float64          `json:"decision_latency_p50"`
	DecisionLatencyP99 float64          `json:"decision_latency_p99"`
	RoutingTableBytes  int              `json:"routing_table_bytes"`
	RoutingEntries     int              `json:"routing_entries"`
}

func (s *Server) stats() StatsReply {
	st := s.node.Stats()
	bm, bb := s.node.BootstrapCost()
	rb, re := s.node.RoutingState()
	reply := StatsReply{
		Site:              int(s.node.Self()),
		Ready:             s.ready.Load(),
		Messages:          st.Messages(),
		Bytes:             st.Bytes(),
		Dropped:           st.Dropped(),
		ByKind:            st.ByKind(),
		BootstrapMessages: bm,
		BootstrapBytes:    bb,
		Violations:        len(s.node.Violations()),
		Disruptions:       s.node.FaultDisruptions(),
		RoutingTableBytes: rb,
		RoutingEntries:    re,
	}
	// The gateway asks every tick and every scrape asks again, so the
	// decision counters are folded in from the journal tail and the latency
	// sample is kept sorted: a call costs the decisions made since the last
	// one, not the history.
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	tail, next, _ := s.node.DecidedSince(s.cursor, 0)
	s.cursor = next
	for _, j := range tail {
		s.decided++
		if j.Outcome == core.AcceptedLocal || j.Outcome == core.AcceptedDistributed {
			s.accepted++
		}
		s.latency.Add(j.DecisionAt - j.Arrival)
	}
	reply.Jobs = s.node.JobCount()
	reply.Decided = s.decided
	reply.Accepted = s.accepted
	reply.DecisionLatencyP50 = s.latency.Percentile(50)
	reply.DecisionLatencyP99 = s.latency.Percentile(99)
	return reply
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.stats())
}

func (s *Server) handleReservations(w http.ResponseWriter, r *http.Request) {
	jobs := s.node.ReservationJobIDs()
	if jobs == nil {
		jobs = []string{}
	}
	writeJSON(w, map[string][]string{"jobs": jobs})
}

func (s *Server) handleIdle(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]bool{"idle": s.node.Idle()})
}

// handleMembership exposes the node's membership view. With membership
// disabled the zero snapshot (started=false, no sites) is returned, so
// dashboards can tell "off" from "alone".
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.node.Membership())
}

// ParseAddrs parses a deployment address list of the form
// "0=host:port,1=host:port,...", shared by the -peers flag of rtds-node
// and the -nodes flag of rtds-load. flagName only shapes error messages.
// With requireAll every site in [0,sites) must be present.
func ParseAddrs(flagName, spec string, sites int, requireAll bool) (map[graph.NodeID]string, error) {
	out := make(map[graph.NodeID]string)
	for _, tok := range strings.Split(spec, ",") {
		idStr, addr, found := strings.Cut(strings.TrimSpace(tok), "=")
		if !found {
			return nil, fmt.Errorf("-%s token %q is not id=host:port", flagName, tok)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 || id >= sites {
			return nil, fmt.Errorf("-%s id %q out of range [0,%d)", flagName, idStr, sites)
		}
		out[graph.NodeID(id)] = addr
	}
	if requireAll {
		for id := 0; id < sites; id++ {
			if out[graph.NodeID(id)] == "" {
				return nil, fmt.Errorf("-%s is missing site %d", flagName, id)
			}
		}
	}
	return out, nil
}

// ParseSites parses a comma-separated site-id list ("3" or "1,4") into a
// set, validating the range. Used by rtds-load's churn flags.
func ParseSites(flagName, spec string, sites int) (map[graph.NodeID]bool, error) {
	out := make(map[graph.NodeID]bool)
	for _, tok := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || id < 0 || id >= sites {
			return nil, fmt.Errorf("-%s id %q out of range [0,%d)", flagName, tok, sites)
		}
		out[graph.NodeID(id)] = true
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
