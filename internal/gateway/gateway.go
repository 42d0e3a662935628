// Package gateway is the cluster's production front door: an HTTP job
// submission API (cmd/rtds-gateway) in front of the rtds-node control
// planes.
//
// A submission (POST /v1/jobs) passes four gates before it is acked:
//
//  1. payload validation — the DAG must parse (dag JSON schema) and must
//     survive the wire codec (a job too large for wire.MaxFrame is
//     refused at the door, not deep inside the commit phase), and its
//     log record must fit in joblog.MaxRecord;
//  2. tenant admission — a per-tenant token bucket (rate/burst) and an
//     inflight cap, configured by -tenants;
//  3. laxity backpressure — when the job's relative deadline is below
//     the cluster's p99 decision latency, and has been for the last few
//     reconcile periods (HTTPBackend.Stats), the gateway answers 429
//     with Retry-After, because the protocol's surplus-based offer phase
//     would reject the job anyway after burning cluster messages;
//  4. durability — the submission is appended to a write-ahead job log
//     (internal/joblog) and fsynced before the 202 ack leaves. That one
//     fsync is all the ack waits for: the forwarded and decided records
//     that follow are written without waiting and ride the next flush.
//
// Once acked, a job survives gateway crashes: on restart the log is
// replayed, undecided jobs re-enter the cluster, and clients can keep
// polling GET /v1/jobs/{id}. The job table is the log's fold, into which
// the gateway folds each record it logs: a restart rebuilds what it served.
//
// Forwarding is at-least-once — a crash between the cluster accepting a
// submission and the Forwarded record reaching disk (at most one reconcile
// period later) makes the job run twice in the cluster; a lost Decided
// record makes the restarted gateway ask the cluster again. Clients that
// need exactly-once semantics supply a client_key, which dedupes retries of
// the same logical job at the gateway.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/joblog"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Job states, exposed in the /v1/jobs/{id} reply.
const (
	// StateQueued means the job is durable in the log but not yet in the
	// cluster (the forward failed; the reconcile tick retries).
	StateQueued = "queued"
	// StateForwarded means the cluster holds the job and the gateway is
	// waiting for its decision.
	StateForwarded = "forwarded"
	// StateDecided means the cluster reached a verdict (see Outcome).
	StateDecided = "decided"
)

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Tenant names the quota bucket; must be declared in -tenants.
	Tenant string `json:"tenant"`
	// ClientKey is an optional idempotency key: retries of the same
	// (tenant, client_key) return the original job instead of submitting
	// a duplicate.
	ClientKey string `json:"client_key,omitempty"`
	// At is the virtual arrival time (0 = now), forwarded to the node.
	At float64 `json:"at,omitempty"`
	// Deadline is the relative deadline in virtual seconds.
	Deadline float64 `json:"deadline"`
	// Graph is the job DAG in the dag package's JSON schema.
	Graph json.RawMessage `json:"graph"`
}

// Job is one accepted submission as POST /v1/jobs and GET /v1/jobs/{id}
// return it, built from the job's entry in the table on every read.
type Job struct {
	// ID is the gateway-assigned durable ID ("g17"), stable across
	// restarts.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// ClusterID is the cluster-assigned job ID ("j3@7"), empty while
	// queued.
	ClusterID string `json:"cluster_id,omitempty"`
	// State is StateQueued, StateForwarded or StateDecided.
	State string `json:"state"`
	// Outcome is the cluster verdict once decided ("accepted-local",
	// "accepted-distributed", "rejected").
	Outcome string `json:"outcome,omitempty"`
	// Deadline echoes the submission's relative deadline.
	Deadline float64 `json:"deadline"`
	// DecisionLatency is the cluster-reported decision latency in
	// virtual seconds, once decided.
	DecisionLatency float64 `json:"decision_latency,omitempty"`
}

// jobOf is the reply for the table's entry j: decided once it has an
// outcome, forwarded once it has a cluster id, queued before. Callers hold
// s.mu.
func jobOf(j *joblog.ReplayJob) Job {
	reply := Job{ID: j.Submitted.ID, Tenant: j.Submitted.Tenant, ClusterID: j.ClusterID,
		State: StateQueued, Deadline: j.Submitted.Deadline}
	switch {
	case j.Outcome != "":
		reply.State, reply.Outcome, reply.DecisionLatency = StateDecided, j.Outcome, j.DecisionLatency
	case j.ClusterID != "":
		reply.State = StateForwarded
	}
	return reply
}

// waiting is a job the gateway still needs something from the cluster for.
type waiting struct {
	job        *joblog.ReplayJob
	acceptedAt time.Time // request arrival; zero for a job restored from the log
}

// TenantStats is the GET /v1/tenants/{t}/stats reply.
type TenantStats struct {
	// Tenant is the tenant name.
	Tenant string `json:"tenant"`
	// Quota echoes the configured admission envelope.
	Quota Quota `json:"quota"`
	// Inflight is the current number of undecided jobs.
	Inflight int `json:"inflight"`
	// Submitted counts durably accepted submissions (incl. replays).
	Submitted int `json:"submitted"`
	// Accepted counts cluster-accepted decisions.
	Accepted int `json:"accepted"`
	// Rejected counts cluster-rejected decisions.
	Rejected int `json:"rejected"`
	// RateLimited counts 429s from the token bucket.
	RateLimited int `json:"rate_limited"`
	// QuotaLimited counts 429s from the inflight cap.
	QuotaLimited int `json:"quota_limited"`
	// LaxityLimited counts 429s from the laxity gate.
	LaxityLimited int `json:"laxity_limited"`
	// Duplicates counts idempotent client_key replays.
	Duplicates int `json:"duplicates"`
}

// Options configures a gateway Server.
type Options struct {
	// Tenants maps tenant name to admission quota; required, see
	// ParseTenants.
	Tenants map[string]Quota
	// Backend is the cluster connection; required.
	Backend Backend
	// LogPath is the write-ahead job log file; required. The file is
	// created if absent and replayed if present.
	LogPath string
	// Log tunes the write-ahead log (fsync batching, failpoints).
	Log joblog.Options
	// PollInterval is the reconcile period (default 200ms): how often the
	// gateway refreshes the cluster statistics behind the laxity gate,
	// re-submits queued jobs, asks the backend for decisions and flushes
	// the forwarded and decided records nobody waited for. With a
	// Backend that is also a DecisionWatcher, decisions arrive as they are
	// made and the tick only catches up on what a watcher cannot see (jobs
	// restored from the log); with a plain Backend it is the decision poll
	// period.
	PollInterval time.Duration
}

// Server is the gateway HTTP front door. Create with New, serve via
// ServeHTTP, stop with Close.
type Server struct {
	backend Backend
	adm     *Admitter
	log     *joblog.Log
	mux     *http.ServeMux
	poll    time.Duration

	mu sync.Mutex
	// jobs is the job table. It changes only by the records the gateway
	// logs, each folded in (Add) as it is logged.
	jobs *joblog.Replay
	// reserving holds the client keys whose first submission is between its
	// ID and its durable record; the channel closes when the append returns.
	reserving map[clientKey]chan struct{}
	// tstats holds each tenant's submitted, accepted and rejected jobs, the
	// log's included; a stats reply reads the rest from t and the admitter.
	tstats map[string]*TenantStats
	t      tally
	seq    uint64
	// The jobs that still need something from the cluster, so that neither
	// the tick nor a delivered verdict ever walks the all-time table.
	queued   map[string]waiting // by gateway ID: durable, not yet in the cluster
	awaiting map[string]waiting // by cluster ID: forwarded, not yet decided
	// forwards holds the verdicts that arrive for a cluster ID while the
	// Backend.Submit that will return that ID is in flight (see windows.go).
	forwards windows[verdict]

	stop      chan struct{}
	stopWatch func() // ends the backend's deliveries; nil for a plain Backend
	done      sync.WaitGroup
}

// verdict is a cluster decision and the path it reached the gateway by
// (the via label of rtds_gateway_decisions_observed_total).
type verdict struct {
	BackendDecision
	via string
}

// New recovers the write-ahead log, takes its fold as the job table,
// restores undecided jobs and starts the reconcile tick and, when the
// backend is a DecisionWatcher, its decision deliveries. Callers must Close
// the server to stop both and release the log.
func New(opts Options) (*Server, error) {
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: no tenants configured")
	}
	if opts.Backend == nil {
		return nil, fmt.Errorf("gateway: no backend configured")
	}
	if opts.LogPath == "" {
		return nil, fmt.Errorf("gateway: no job-log path configured")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Millisecond
	}

	s := &Server{
		backend:   opts.Backend,
		adm:       NewAdmitter(opts.Tenants),
		t:         newTally(),
		poll:      opts.PollInterval,
		reserving: make(map[clientKey]chan struct{}),
		tstats:    make(map[string]*TenantStats),
		queued:    make(map[string]waiting),
		awaiting:  make(map[string]waiting),
		stop:      make(chan struct{}),
	}
	for name, q := range opts.Tenants {
		s.tstats[name] = &TenantStats{Tenant: name, Quota: q}
	}

	// OnSync runs on whichever goroutine's Append, Sync or Close leads the
	// fsync, and it takes s.mu: no call into the log is made under s.mu.
	logOpts := opts.Log
	userOnSync := logOpts.OnSync
	logOpts.OnSync = func(d time.Duration) {
		s.mu.Lock()
		s.t.fsync.Observe(d.Seconds())
		s.mu.Unlock()
		if userOnSync != nil {
			userOnSync(d)
		}
	}
	start := time.Now()
	l, replay, err := joblog.Recover(opts.LogPath, logOpts)
	if err != nil {
		return nil, fmt.Errorf("gateway: open job log: %w", err)
	}
	s.log = l
	s.restore(replay)
	s.t.restartSeconds = time.Since(start).Seconds()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleTenantStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	s.done.Add(1)
	go s.pollLoop()
	if w, ok := s.backend.(DecisionWatcher); ok {
		s.stopWatch = w.WatchDecisions(func(d map[string]BackendDecision) { s.applyDecisions(d, "watch") })
	}
	return s, nil
}

// restore takes the log's fold as the job table and rebuilds what the table
// does not hold, in one pass that allocates nothing for a decided job:
// undecided jobs re-occupy their tenant's inflight slot and are pushed back
// toward the cluster by the reconcile tick (queued jobs are re-submitted,
// with the graph the fold kept for them; forwarded jobs are asked about
// again), and each tenant's jobs are counted.
func (s *Server) restore(rep *joblog.Replay) {
	s.jobs = rep
	s.seq = rep.NextSeq
	for _, j := range rep.Jobs {
		tenant := j.Submitted.Tenant
		ts := s.tenantStats(tenant)
		ts.Submitted++
		switch {
		case j.Undecided():
			if j.ClusterID != "" {
				s.awaiting[j.ClusterID] = waiting{job: j}
			} else {
				s.queued[j.Submitted.ID] = waiting{job: j}
			}
			s.adm.Restore(tenant)
			s.t.replayed++
		case isAccepted(j.Outcome):
			ts.Accepted++
		default:
			ts.Rejected++
		}
	}
}

// tenantStats returns (creating if needed) the per-tenant counters.
// Callers hold s.mu or run before the server is shared.
func (s *Server) tenantStats(tenant string) *TenantStats {
	ts, ok := s.tstats[tenant]
	if !ok {
		ts = &TenantStats{Tenant: tenant, Quota: s.adm.Quota(tenant)}
		s.tstats[tenant] = ts
	}
	return ts
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the tick and the backend's deliveries and closes the
// write-ahead log. The final log flush is synchronous: a clean shutdown
// loses nothing.
func (s *Server) Close() error {
	close(s.stop)
	if s.stopWatch != nil {
		s.stopWatch()
	}
	s.done.Wait()
	return s.log.Close()
}

// MetricsText renders the current /metrics exposition (tests, debugging).
func (s *Server) MetricsText() string { return s.scrape().Expose() }

// scrape builds the /metrics exposition from the server's state.
func (s *Server) scrape() *metrics.Builder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return exposition(&s.t, s.adm, len(s.jobs.Jobs))
}

// ---------------------------------------------------------------------------
// handlers

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxJobJSON)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.reject(w, req.Tenant, "invalid", status, "bad request body: "+err.Error(), 0)
		return
	}
	if !s.adm.Known(req.Tenant) {
		s.reject(w, req.Tenant, "unknown", http.StatusForbidden,
			fmt.Sprintf("unknown tenant %q", req.Tenant), 0)
		return
	}
	if req.Deadline <= 0 {
		s.reject(w, req.Tenant, "invalid", http.StatusBadRequest, "deadline must be > 0", 0)
		return
	}

	// Validate the DAG against both codecs at the door: the dag JSON
	// schema (what the node API re-parses) and the wire codec (what the
	// commit phase ships between sites — a job that cannot fit in a
	// wire frame must not enter the cluster).
	g, err := dag.UnmarshalGraph(req.Graph)
	if err != nil {
		s.reject(w, req.Tenant, "invalid", http.StatusBadRequest, "bad graph: "+err.Error(), 0)
		return
	}
	if _, err := wire.Encode(core.CommitMsg{Job: "probe", Graph: g}); err != nil {
		s.reject(w, req.Tenant, "invalid", http.StatusRequestEntityTooLarge,
			"graph exceeds wire limits: "+err.Error(), 0)
		return
	}
	// The log must be able to hold the submitted record. It is sized here,
	// with the longest id a sequence number can give, so that a job the log
	// would refuse is refused before it is admitted or takes a number.
	rec := joblog.Record{
		Type:      joblog.TypeSubmitted,
		ID:        jobID(math.MaxUint64),
		Seq:       math.MaxUint64,
		Tenant:    req.Tenant,
		ClientKey: req.ClientKey,
		At:        req.At,
		Deadline:  req.Deadline,
		Graph:     req.Graph,
	}
	if err := joblog.CheckSize(rec); err != nil {
		s.reject(w, req.Tenant, "invalid", http.StatusRequestEntityTooLarge,
			"submission exceeds job log limits: "+err.Error(), 0)
		return
	}

	// One critical section looks the client key up, admits the submission,
	// assigns the ID and reserves the key, so of any number of concurrent
	// posts of one (tenant, client_key) exactly one gets past it. The others
	// wait for that one's submitted record and answer with its job: no
	// reply, duplicate or not, leaves before the record is durable.
	key := clientKey{req.Tenant, req.ClientKey}
	keyed := req.ClientKey != ""
	s.mu.Lock()
	for keyed {
		if j := s.jobs.Keyed(req.Tenant, req.ClientKey); j != nil {
			// Idempotent retry: same (tenant, client_key) returns the original.
			reply := jobOf(j)
			s.t.submissions[[2]string{req.Tenant, "duplicate"}]++
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, reply)
			return
		}
		first, ok := s.reserving[key]
		if !ok {
			break
		}
		s.mu.Unlock()
		<-first // its record is durable, or its append failed and the key is free again
		s.mu.Lock()
	}
	dec := s.adm.Admit(req.Tenant, req.Deadline)
	if !dec.OK {
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(dec.RetryAfter.Seconds()))))
		s.reject(w, req.Tenant, "rejected_"+dec.Reason, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over %s limit", req.Tenant, dec.Reason), dec.RetryAfter.Seconds())
		return
	}
	s.seq++
	rec.ID, rec.Seq = jobID(s.seq), s.seq
	var reserved chan struct{}
	if keyed {
		reserved = make(chan struct{})
		s.reserving[key] = reserved
	}
	s.mu.Unlock()

	// Durability gate: the 202 ack must not leave before the Submitted
	// record is fsynced, and this is the only fsync it waits for. Append
	// group-commits, so concurrent submissions share one.
	err = s.log.Append(rec)

	s.mu.Lock()
	if reserved != nil {
		delete(s.reserving, key)
		close(reserved)
	}
	var j *joblog.ReplayJob
	if err == nil {
		j = s.jobs.Add(&rec) // it keeps req.Graph while the job is queued
		s.tenantStats(req.Tenant).Submitted++
		s.t.submissions[[2]string{req.Tenant, "accepted"}]++
		s.t.records++
	}
	s.mu.Unlock()
	if err != nil {
		s.adm.Release(req.Tenant)
		s.reject(w, req.Tenant, "error", http.StatusInternalServerError,
			"job log write failed: "+err.Error(), 0)
		return
	}

	// Forward inline; a failure leaves the job queued for the tick. The
	// accept instant is the request's: the verdict can be back within
	// milliseconds, and the decision-latency sample is taken from it.
	s.forward(waiting{job: j, acceptedAt: start})

	s.mu.Lock()
	reply := jobOf(j)
	s.t.accept.Observe(time.Since(start).Seconds())
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, reply)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs.Job(r.PathValue("id"))
	var reply Job
	if j != nil {
		reply = jobOf(j)
	}
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if !s.adm.Known(tenant) {
		http.Error(w, "no such tenant", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	reply := *s.tenantStats(tenant)
	result := func(r string) int { return s.t.submissions[[2]string{tenant, r}] }
	reply.RateLimited, reply.QuotaLimited, reply.LaxityLimited = result("rejected_rate"), result("rejected_quota"), result("rejected_laxity")
	reply.Duplicates = result("duplicate")
	s.mu.Unlock()
	reply.Inflight = s.adm.Inflight(tenant)
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b := s.scrape()
	w.Header().Set("Content-Type", metrics.ContentType)
	b.WriteTo(w)
}

// reject writes an error reply and counts it against the tenant's
// submissions (unknown tenants land on the "unknown" label).
func (s *Server) reject(w http.ResponseWriter, tenant, result string, code int, msg string, retryAfter float64) {
	label := tenant
	if !s.adm.Known(tenant) {
		label = "unknown"
	}
	s.mu.Lock()
	s.t.submissions[[2]string{label, result}]++
	s.mu.Unlock()
	body := map[string]any{"error": msg, "result": result}
	if retryAfter > 0 {
		body["retry_after_seconds"] = math.Ceil(retryAfter)
	}
	writeJSON(w, code, body)
}

// ---------------------------------------------------------------------------
// forwarding and decision return

// forward submits a queued job to the cluster. A failure queues it for the
// next tick (a job enters s.queued only here and in restore, so the tick
// never races the inline forward of a fresh job). A success folds the job's
// Forwarded record into the table, which gives the job its cluster id and
// lets go of its graph, logs the record and applies the verdict if it
// overtook the forward (it was kept in w). Nobody waits for the record: it
// is written after the cluster accepted the submission and is durable with
// the next flush, and a crash before that replays the submission
// (at-least-once, see the package comment). A watcher may log the job's
// Decided record first; replay folds the two in either order.
func (s *Server) forward(p waiting) {
	s.mu.Lock()
	sub := &p.job.Submitted
	if jobOf(p.job).State != StateQueued { // two ticks at once: the other one forwarded it
		s.mu.Unlock()
		return
	}
	w := s.forwards.open()
	at, deadline, graph := sub.At, sub.Deadline, sub.Graph
	s.mu.Unlock()
	clusterID, err := s.backend.Submit(at, deadline, graph)
	if err != nil {
		s.mu.Lock()
		s.t.backendErrors++
		s.forwards.close(w, "")
		s.queued[sub.ID] = p
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	early, decided := s.forwards.close(w, clusterID)
	if jobOf(p.job).State != StateQueued {
		s.mu.Unlock()
		return
	}
	rec := joblog.Record{Type: joblog.TypeForwarded, ID: sub.ID, Tenant: sub.Tenant, ClusterID: clusterID}
	s.jobs.Add(&rec)
	delete(s.queued, rec.ID)
	s.awaiting[clusterID] = p
	s.mu.Unlock()
	s.logNoWait(rec)
	if decided {
		s.applyDecisions(map[string]BackendDecision{clusterID: early.BackendDecision}, early.via)
	}
}

// pollLoop runs the reconcile tick.
func (s *Server) pollLoop() {
	defer s.done.Done()
	ticker := time.NewTicker(s.poll)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.pollOnce()
		}
	}
}

// logNoWait writes records nobody waits for (see joblog.AppendNoWait). A
// failure poisons the log, so the next submission is refused with a 500;
// there is nothing to undo here.
func (s *Server) logNoWait(recs ...joblog.Record) {
	if err := s.log.AppendNoWait(recs...); err == nil {
		s.mu.Lock()
		s.t.records += len(recs)
		s.mu.Unlock()
	}
}

// pollOnce is one reconcile tick: refresh the laxity gate, re-submit
// queued jobs, ask the backend for decisions, and flush the log if a
// forwarded or decided record is waiting for it — so such a record is
// durable within one period, and an idle gateway does not touch the disk.
// Exported to tests via PollNow.
func (s *Server) pollOnce() {
	if st, err := s.backend.Stats(); err == nil {
		s.adm.ObserveDecisionLatency(st.DecisionLatencyP99)
	} else {
		s.countBackendError()
	}

	// Re-submit queued jobs (failed forwards, replayed submissions).
	s.mu.Lock()
	queued := make([]waiting, 0, len(s.queued))
	for _, id := range determinism.SortedKeys(s.queued) {
		queued = append(queued, s.queued[id])
	}
	s.mu.Unlock()
	for _, p := range queued {
		s.forward(p)
	}

	if decisions, err := s.backend.Decisions(); err == nil {
		s.applyDecisions(decisions, "poll")
	} else {
		s.countBackendError()
	}
	_ = s.log.Sync() // a failed flush poisons the log; the next submission reports it
}

// applyDecisions records the verdicts in a backend's report, whether it
// came from the tick ("poll") or from a DecisionWatcher ("watch"). Reports
// may repeat a verdict, arrive from several goroutines at once and name
// jobs this gateway does not await; the first report of an awaited job
// wins. The work is proportional to the report, never to the job history.
func (s *Server) applyDecisions(decisions map[string]BackendDecision, via string) {
	var recs []joblog.Record
	s.mu.Lock()
	for _, clusterID := range determinism.SortedKeys(decisions) {
		d := decisions[clusterID]
		if !d.Decided() {
			continue
		}
		p, ok := s.awaiting[clusterID]
		if !ok {
			// Possibly the job of a forward still in flight.
			s.forwards.offer(clusterID, verdict{d, via})
			continue
		}
		delete(s.awaiting, clusterID)
		rec := joblog.Record{Type: joblog.TypeDecided, ID: p.job.Submitted.ID, Tenant: p.job.Submitted.Tenant,
			ClusterID: clusterID, Outcome: d.Outcome, DecisionLatency: d.Latency}
		s.jobs.Add(&rec)
		ts := s.tenantStats(rec.Tenant)
		if isAccepted(d.Outcome) {
			ts.Accepted++
		} else {
			ts.Rejected++
		}
		s.t.decisions[[2]string{rec.Tenant, d.Outcome}]++
		s.t.observed[via]++
		if !p.acceptedAt.IsZero() {
			s.t.decide.Observe(time.Since(p.acceptedAt).Seconds())
		}
		s.adm.Release(rec.Tenant)
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	// One write for the whole report, not one fsync per verdict.
	s.logNoWait(recs...)
}

// countBackendError counts one failed backend call.
func (s *Server) countBackendError() {
	s.mu.Lock()
	s.t.backendErrors++
	s.mu.Unlock()
}

// PollNow runs one synchronous reconcile tick (tests and shutdown drains);
// the background loop keeps its own cadence.
func (s *Server) PollNow() { s.pollOnce() }

func isAccepted(outcome string) bool {
	return outcome == "accepted-local" || outcome == "accepted-distributed"
}

// clientKey indexes a job by the (tenant, client_key) its submission named.
type clientKey struct{ tenant, key string }

// jobID is the gateway job id of sequence number seq.
func jobID(seq uint64) string { return "g" + strconv.FormatUint(seq, 10) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
