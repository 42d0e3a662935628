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
// polling GET /v1/jobs/{id}. Forwarding is at-least-once — a crash
// between the cluster accepting a submission and the Forwarded record
// reaching disk (at most one reconcile period later) makes the job run
// twice in the cluster; a lost Decided record makes the restarted gateway
// ask the cluster again. Clients that need exactly-once semantics supply a
// client_key, which dedupes retries of the same logical job at the
// gateway.
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

// Job is the gateway's record of one accepted submission, returned by
// POST /v1/jobs and GET /v1/jobs/{id}.
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

	clientKey string
	// graph is held only while the job is queued, when the gateway may have
	// to submit it (again); once the cluster holds the job it is dropped.
	graph      json.RawMessage
	at         float64
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
	m       *gwMetrics
	mux     *http.ServeMux
	poll    time.Duration

	mu          sync.Mutex
	jobs        map[string]*Job      // by gateway ID
	byClientKey map[clientKey]string // gateway ID
	// reserving holds the client keys whose first submission is between its
	// ID and its durable record; the channel closes when the append returns.
	reserving map[clientKey]chan struct{}
	tstats    map[string]*TenantStats
	seq       uint64
	// The jobs that still need something from the cluster, so that neither
	// the tick nor a delivered verdict ever walks the all-time tables.
	queued   map[string]*Job // by gateway ID: durable, not yet in the cluster
	awaiting map[string]*Job // by cluster ID: forwarded, not yet decided
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

// New opens (and replays) the write-ahead log, restores undecided jobs and
// starts the reconcile tick and, when the backend is a DecisionWatcher, its
// decision deliveries. Callers must Close the server to stop both and
// release the log.
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
		m:         newGWMetrics(),
		poll:      opts.PollInterval,
		reserving: make(map[clientKey]chan struct{}),
		tstats:    make(map[string]*TenantStats),
		queued:    make(map[string]*Job),
		awaiting:  make(map[string]*Job),
		stop:      make(chan struct{}),
	}
	for name, q := range opts.Tenants {
		s.tstats[name] = &TenantStats{Tenant: name, Quota: q}
	}

	logOpts := opts.Log
	userOnSync := logOpts.OnSync
	logOpts.OnSync = func(d time.Duration) {
		s.m.fsyncLatency.Observe(d.Seconds())
		if userOnSync != nil {
			userOnSync(d)
		}
	}
	l, replay, err := joblog.Recover(opts.LogPath, logOpts)
	if err != nil {
		return nil, fmt.Errorf("gateway: open job log: %w", err)
	}
	s.log = l
	s.restore(replay)

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

// restore rebuilds in-memory state from the replayed log. Undecided jobs
// re-occupy their tenant's inflight slot and are pushed back toward the
// cluster by the reconcile tick (queued jobs are re-submitted; forwarded
// jobs are asked about again). Only queued jobs come with their graph. The
// job tables are made here, at the size the log says they have, and the
// restored jobs, which live as long as the server, are allocated together.
func (s *Server) restore(rep *joblog.Replay) {
	s.seq = rep.NextSeq
	s.jobs = make(map[string]*Job, len(rep.Jobs))
	s.byClientKey = make(map[clientKey]string, len(rep.Jobs))
	restored := make([]Job, len(rep.Jobs))
	for i, rj := range rep.Jobs {
		sub := rj.Submitted
		j := &restored[i]
		*j = Job{
			ID:        sub.ID,
			Tenant:    sub.Tenant,
			ClusterID: rj.ClusterID,
			Deadline:  sub.Deadline,
			clientKey: sub.ClientKey,
			graph:     sub.Graph,
			at:        sub.At,
		}
		switch {
		case rj.Outcome != "":
			j.State = StateDecided
			j.Outcome = rj.Outcome
			j.DecisionLatency = rj.DecisionLatency
		case rj.ClusterID != "":
			j.State = StateForwarded
			s.awaiting[j.ClusterID] = j
		default:
			j.State = StateQueued
			s.queued[j.ID] = j
		}
		s.jobs[j.ID] = j
		if j.clientKey != "" {
			s.byClientKey[clientKey{j.Tenant, j.clientKey}] = j.ID
		}
		ts := s.tenantStats(j.Tenant)
		ts.Submitted++
		switch {
		case j.State != StateDecided:
			s.adm.Restore(j.Tenant)
			s.m.inflight.With(j.Tenant).Inc()
			s.m.replayed.Inc()
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
func (s *Server) MetricsText() string { return s.m.reg.Expose() }

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
		if id, ok := s.byClientKey[key]; ok {
			// Idempotent retry: same (tenant, client_key) returns the original.
			j := *s.jobs[id]
			s.tenantStats(req.Tenant).Duplicates++
			s.mu.Unlock()
			s.m.submissions.With(req.Tenant, "duplicate").Inc()
			writeJSON(w, http.StatusOK, j)
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
		s.countLimited(req.Tenant, dec.Reason)
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(dec.RetryAfter.Seconds()))))
		s.reject(w, req.Tenant, "rejected_"+dec.Reason, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over %s limit", req.Tenant, dec.Reason), dec.RetryAfter.Seconds())
		return
	}
	s.seq++
	rec.ID, rec.Seq = jobID(s.seq), s.seq
	j := &Job{
		ID:        rec.ID,
		Tenant:    req.Tenant,
		State:     StateQueued,
		Deadline:  req.Deadline,
		clientKey: req.ClientKey,
		graph:     req.Graph,
		at:        req.At,
		// Stamped before the forward: the verdict can be back within
		// milliseconds, and the decision-latency sample is taken from it.
		acceptedAt: start,
	}
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
	if err == nil {
		s.jobs[j.ID] = j
		if keyed {
			s.byClientKey[key] = j.ID
		}
		s.tenantStats(j.Tenant).Submitted++
	}
	s.mu.Unlock()
	if err != nil {
		s.adm.Release(req.Tenant)
		s.reject(w, req.Tenant, "error", http.StatusInternalServerError,
			"job log write failed: "+err.Error(), 0)
		return
	}
	s.m.joblogRecords.Inc()
	s.m.inflight.With(j.Tenant).Inc()
	s.m.submissions.With(j.Tenant, "accepted").Inc()

	// Forward inline; a failure leaves the job queued for the tick.
	s.forward(j)

	s.mu.Lock()
	reply := *j
	s.mu.Unlock()
	s.m.acceptLatency.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusAccepted, reply)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var reply Job
	if ok {
		reply = *j
	}
	s.mu.Unlock()
	if !ok {
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
	s.mu.Unlock()
	reply.Inflight = s.adm.Inflight(tenant)
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.m.reg.WriteTo(w)
}

// reject writes an error reply and counts it against the tenant's
// submissions metric (unknown tenants land on the "unknown" label).
func (s *Server) reject(w http.ResponseWriter, tenant, result string, code int, msg string, retryAfter float64) {
	label := tenant
	if !s.adm.Known(tenant) {
		label = "unknown"
	}
	s.m.submissions.With(label, result).Inc()
	body := map[string]any{"error": msg, "result": result}
	if retryAfter > 0 {
		body["retry_after_seconds"] = math.Ceil(retryAfter)
	}
	writeJSON(w, code, body)
}

// countLimited counts one 429 against the tenant. Callers hold s.mu.
func (s *Server) countLimited(tenant, reason string) {
	ts := s.tenantStats(tenant)
	switch reason {
	case "rate":
		ts.RateLimited++
	case "quota":
		ts.QuotaLimited++
	case "laxity":
		ts.LaxityLimited++
	}
}

// ---------------------------------------------------------------------------
// forwarding and decision return

// forward submits a job to the cluster and records the outcome. A failure
// queues it for the next tick (a job enters s.queued only here and in
// restore, so the tick never races the inline forward of a fresh job).
func (s *Server) forward(j *Job) {
	s.mu.Lock()
	if j.State != StateQueued { // two ticks at once: the other one forwarded it
		s.mu.Unlock()
		return
	}
	w := s.forwards.open()
	graph := j.graph // dropped, under this lock, once the job is forwarded
	s.mu.Unlock()
	clusterID, err := s.backend.Submit(j.at, j.Deadline, graph)
	if err != nil {
		s.m.backendErrors.Inc()
		s.mu.Lock()
		s.forwards.close(w, "")
		s.queued[j.ID] = j
		s.mu.Unlock()
		return
	}
	s.recordForwarded(j, clusterID, w)
}

// recordForwarded marks a job as held by the cluster, lets go of its graph,
// logs the Forwarded record and applies the verdict if it overtook the
// forward (it was kept in w). Nobody waits for the record: it is written
// after the cluster accepted the submission and is durable with the next
// flush, and a crash before that replays the submission (at-least-once, see
// the package comment). A watcher may log the job's Decided record first;
// replay folds the two in either order.
func (s *Server) recordForwarded(j *Job, clusterID string, w *window[verdict]) {
	s.mu.Lock()
	early, decided := s.forwards.close(w, clusterID)
	if j.State != StateQueued {
		s.mu.Unlock()
		return
	}
	j.State = StateForwarded
	j.ClusterID = clusterID
	j.graph = nil
	delete(s.queued, j.ID)
	s.awaiting[clusterID] = j
	s.mu.Unlock()
	s.logNoWait(joblog.Record{
		Type: joblog.TypeForwarded, ID: j.ID, Tenant: j.Tenant, ClusterID: clusterID,
	})
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
		s.m.joblogRecords.Add(float64(len(recs)))
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
		s.m.clusterLaxity.Set(st.DecisionLatencyP99)
	} else {
		s.m.backendErrors.Inc()
	}

	// Re-submit queued jobs (failed forwards, replayed submissions).
	s.mu.Lock()
	queued := make([]*Job, 0, len(s.queued))
	for _, id := range determinism.SortedKeys(s.queued) {
		queued = append(queued, s.queued[id])
	}
	s.mu.Unlock()
	for _, j := range queued {
		s.forward(j)
	}

	if decisions, err := s.backend.Decisions(); err == nil {
		s.applyDecisions(decisions, "poll")
	} else {
		s.m.backendErrors.Inc()
	}
	_ = s.log.Sync() // a failed flush poisons the log; the next submission reports it
}

// applyDecisions records the verdicts in a backend's report, whether it
// came from the tick ("poll") or from a DecisionWatcher ("watch"). Reports
// may repeat a verdict, arrive from several goroutines at once and name
// jobs this gateway does not await; the first report of an awaited job
// wins. The work is proportional to the report, never to the job history.
func (s *Server) applyDecisions(decisions map[string]BackendDecision, via string) {
	var decided []Job
	s.mu.Lock()
	for _, clusterID := range determinism.SortedKeys(decisions) {
		d := decisions[clusterID]
		if !d.Decided() {
			continue
		}
		j, ok := s.awaiting[clusterID]
		if !ok {
			// Possibly the job of a forward still in flight.
			s.forwards.offer(clusterID, verdict{d, via})
			continue
		}
		delete(s.awaiting, clusterID)
		j.State = StateDecided
		j.Outcome = d.Outcome
		j.DecisionLatency = d.Latency
		ts := s.tenantStats(j.Tenant)
		if isAccepted(d.Outcome) {
			ts.Accepted++
		} else {
			ts.Rejected++
		}
		decided = append(decided, *j)
	}
	s.mu.Unlock()
	recs := make([]joblog.Record, 0, len(decided))
	for _, j := range decided {
		s.adm.Release(j.Tenant)
		s.m.inflight.With(j.Tenant).Dec()
		s.m.decisions.With(j.Tenant, j.Outcome).Inc()
		s.m.observed.With(via).Inc()
		if !j.acceptedAt.IsZero() {
			s.m.decideLatency.Observe(time.Since(j.acceptedAt).Seconds())
		}
		recs = append(recs, joblog.Record{
			Type: joblog.TypeDecided, ID: j.ID, Tenant: j.Tenant,
			ClusterID: j.ClusterID, Outcome: j.Outcome, DecisionLatency: j.DecisionLatency,
		})
	}
	// One write for the whole report, not one fsync per verdict.
	s.logNoWait(recs...)
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
