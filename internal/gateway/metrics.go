package gateway

import "repro/internal/metrics"

// tally is what the gateway counts: each fact once, where it happens, under
// Server.mu. The tenant stats and /metrics both read it; what the admitter
// or the job table already holds (inflight, the laxity gate's p99, the jobs
// held) is read from them at scrape time instead of being counted again.
type tally struct {
	submissions map[[2]string]int // by tenant label and result
	decisions   map[[2]string]int // by tenant and outcome
	observed    map[string]int    // decisions by the path they came back on
	// Wall-clock latencies: request to durable ack, request to decision,
	// and every fsync of the log.
	accept, decide, fsync            metrics.Histogram
	records, replayed, backendErrors int
	restartSeconds                   float64
}

func newTally() tally {
	return tally{
		submissions: make(map[[2]string]int),
		decisions:   make(map[[2]string]int),
		observed:    make(map[string]int),
		accept:      metrics.NewHistogram(metrics.DefaultLatencyBuckets),
		decide:      metrics.NewHistogram(metrics.DefaultLatencyBuckets),
		fsync:       metrics.NewHistogram(metrics.DefaultLatencyBuckets),
	}
}

// exposition renders the gateway's /metrics from its tally, the admitter's
// inflight counts and laxity gate, and the size of the job table. Every
// family here must be documented in docs/metrics.md; the docs coverage test
// (internal/docscheck) enforces that via MetricNames.
func exposition(t *tally, adm *Admitter, held int) *metrics.Builder {
	var b metrics.Builder
	submissions := b.Family(metrics.KindCounter, "rtds_gateway_submissions_total",
		"Job submissions by tenant and result (accepted, duplicate, rejected_rate, rejected_quota, rejected_laxity, invalid, unknown, error).",
		"tenant", "result")
	for k, n := range t.submissions {
		submissions.Set(float64(n), k[0], k[1])
	}
	decisions := b.Family(metrics.KindCounter, "rtds_gateway_decisions_total",
		"Cluster decisions observed by the gateway, by tenant and outcome.",
		"tenant", "outcome")
	for k, n := range t.decisions {
		decisions.Set(float64(n), k[0], k[1])
	}
	observed := b.Family(metrics.KindCounter, "rtds_gateway_decisions_observed_total",
		"Cluster decisions observed, by the path they came back on: watch (delivered by the backend when made) or poll (found by the reconcile tick).",
		"via")
	for via, n := range t.observed {
		observed.Set(float64(n), via)
	}
	inflight := b.Family(metrics.KindGauge, "rtds_gateway_jobs_inflight",
		"Jobs accepted by the gateway and not yet decided by the cluster.",
		"tenant")
	for _, tenant := range adm.Tenants() {
		inflight.Set(float64(adm.Inflight(tenant)), tenant)
	}
	b.Histogram("rtds_gateway_accept_latency_seconds",
		"Wall time from request arrival to the durable 202 ack (includes the submitted record's fsync, the only one it waits for).",
		t.accept)
	b.Histogram("rtds_gateway_decision_latency_seconds",
		"Wall time from durable accept to the observed cluster decision.",
		t.decide)
	b.Histogram("rtds_gateway_joblog_fsync_seconds",
		"Write-ahead job-log fsync latency: group commits of submissions and the reconcile tick's flushes.",
		t.fsync)
	b.Counter("rtds_gateway_replayed_total",
		"Undecided jobs replayed from the write-ahead log after a restart.", float64(t.replayed))
	b.Counter("rtds_gateway_backend_errors_total",
		"Failed backend calls (submit, decision poll or stats poll).", float64(t.backendErrors))
	b.Gauge("rtds_gateway_cluster_decision_p99_seconds",
		"Cluster p99 decision latency feeding the laxity admission gate.", adm.DecisionLatency())
	b.Counter("rtds_gateway_joblog_records_total",
		"Records written to the write-ahead job log (submitted, forwarded, decided).", float64(t.records))
	b.Gauge("rtds_gateway_restart_seconds",
		"Wall time the gateway's start spent recovering the write-ahead log and rebuilding its job table.", t.restartSeconds)
	b.Gauge("rtds_gateway_jobs_held",
		"Jobs in the gateway's job table, decided or not: one entry per job the log holds.", float64(held))
	return &b
}

// MetricNames lists every metric family the gateway exports, for the
// docs/metrics.md coverage test.
func MetricNames() []string {
	t := newTally()
	return exposition(&t, NewAdmitter(nil), 0).Names()
}
