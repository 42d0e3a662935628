// Package nodeapi is the control and observability plane of one deployed
// RTDS site (cmd/rtds-node): a small JSON-over-HTTP API for job
// submission, decision return and leak checking, and one statistics
// surface, Prometheus text on /metrics (prom.go). docs/api.md lists the
// endpoints; docs/metrics.md the metric families.
//
// Decisions return through the node's decision journal, the decisions of
// its record log (core.Node's DecidedSince): GET
// /jobs?since=<cursor>&boot=<token> answers with the decisions logged after
// the cursor, an opaque log position, in decision order, and with wait=<d> it
// holds the request until the next decision or the timeout, so a reader that
// keeps its cursor learns of a decision when it is made and pays for new
// decisions only. The boot token names this process: a reader whose token
// is stale (the node restarted, its journal is empty) is restarted at 0, and
// so is a GET /jobs without a cursor. /metrics renders the node's
// Summarize: the counters core records with their facts in the site's
// tally, and the transport's. The server keeps no counter of its own.
package nodeapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/graph"
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

// JournalReply is the GET /jobs schema.
type JournalReply struct {
	// Boot names the answering process; send it back with the next read.
	Boot string `json:"boot"`
	// Next is the cursor to send with the next read: an opaque position
	// in the node's record log.
	Next int `json:"next"`
	// Jobs are the decisions made after the request's cursor, in decision
	// order (empty, not null, when there are none).
	Jobs []core.JobStatus `json:"jobs"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cursor := 0 // no cursor reads from the start, as a stale one does
	var err error
	if q.Has("since") {
		if cursor, err = strconv.Atoi(q.Get("since")); err != nil || cursor < 0 {
			http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
			return
		}
	}
	if q.Get("boot") != s.boot {
		cursor = 0 // the reader's cursor is a position in another process's log
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

// ReadJournal reads one page of the decision journal of the node at base
// ("http://host:port"): the decisions after cursor in the process boot
// names, held at the node for up to wait while there are none (0 answers at
// once). The gateway and rtds-load read nodes through it.
func ReadJournal(ctx context.Context, client *http.Client, base string, cursor int, boot string, wait time.Duration) (reply JournalReply, err error) {
	u := fmt.Sprintf("%s/jobs?since=%d&boot=%s&wait=%s", base, cursor, url.QueryEscape(boot), wait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return reply, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return reply, json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&reply) // a page is about 1 MB
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
	var view membership.Snapshot
	if snaps := s.node.MembershipSnapshots(); len(snaps) > 0 {
		view = snaps[0] // a node runs one site
	}
	writeJSON(w, view)
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
