package gateway

import "repro/internal/metrics"

// gwMetrics bundles the gateway's Prometheus instruments. Every family
// here must be documented in docs/metrics.md; the docs coverage test
// (internal/docscheck) enforces that via MetricNames.
type gwMetrics struct {
	reg *metrics.Registry

	submissions   *metrics.CounterVec // rtds_gateway_submissions_total{tenant,result}
	decisions     *metrics.CounterVec // rtds_gateway_decisions_total{tenant,outcome}
	observed      *metrics.CounterVec // rtds_gateway_decisions_observed_total{via}
	inflight      *metrics.GaugeVec   // rtds_gateway_jobs_inflight{tenant}
	acceptLatency *metrics.Histogram  // rtds_gateway_accept_latency_seconds
	decideLatency *metrics.Histogram  // rtds_gateway_decision_latency_seconds
	fsyncLatency  *metrics.Histogram  // rtds_gateway_joblog_fsync_seconds
	replayed      *metrics.Counter    // rtds_gateway_replayed_total
	backendErrors *metrics.Counter    // rtds_gateway_backend_errors_total
	clusterLaxity *metrics.Gauge      // rtds_gateway_cluster_decision_p99_seconds
	joblogRecords *metrics.Counter    // rtds_gateway_joblog_records_total
	restartSecs   *metrics.Gauge      // rtds_gateway_restart_seconds
	jobsHeld      *metrics.Gauge      // rtds_gateway_jobs_held
}

func newGWMetrics() *gwMetrics {
	r := metrics.NewRegistry()
	return &gwMetrics{
		reg: r,
		submissions: r.NewCounterVec("rtds_gateway_submissions_total",
			"Job submissions by tenant and result (accepted, duplicate, rejected_rate, rejected_quota, rejected_laxity, invalid, error).",
			"tenant", "result"),
		decisions: r.NewCounterVec("rtds_gateway_decisions_total",
			"Cluster decisions observed by the gateway, by tenant and outcome.",
			"tenant", "outcome"),
		observed: r.NewCounterVec("rtds_gateway_decisions_observed_total",
			"Cluster decisions observed, by the path they came back on: watch (delivered by the backend when made) or poll (found by the reconcile tick).",
			"via"),
		inflight: r.NewGaugeVec("rtds_gateway_jobs_inflight",
			"Jobs accepted by the gateway and not yet decided by the cluster.",
			"tenant"),
		acceptLatency: r.NewHistogram("rtds_gateway_accept_latency_seconds",
			"Wall time from request arrival to the durable 202 ack (includes the submitted record's fsync, the only one it waits for).",
			metrics.DefaultLatencyBuckets),
		decideLatency: r.NewHistogram("rtds_gateway_decision_latency_seconds",
			"Wall time from durable accept to the observed cluster decision.",
			metrics.DefaultLatencyBuckets),
		fsyncLatency: r.NewHistogram("rtds_gateway_joblog_fsync_seconds",
			"Write-ahead job-log fsync latency: group commits of submissions and the reconcile tick's flushes.",
			metrics.DefaultLatencyBuckets),
		replayed: r.NewCounter("rtds_gateway_replayed_total",
			"Undecided jobs replayed from the write-ahead log after a restart."),
		backendErrors: r.NewCounter("rtds_gateway_backend_errors_total",
			"Failed backend calls (submit, decision poll or stats poll)."),
		clusterLaxity: r.NewGauge("rtds_gateway_cluster_decision_p99_seconds",
			"Cluster p99 decision latency feeding the laxity admission gate."),
		joblogRecords: r.NewCounter("rtds_gateway_joblog_records_total",
			"Records written to the write-ahead job log (submitted, forwarded, decided)."),
		restartSecs: r.NewGauge("rtds_gateway_restart_seconds",
			"Wall time the gateway's start spent recovering the write-ahead log and rebuilding its job table."),
		jobsHeld: r.NewGauge("rtds_gateway_jobs_held",
			"Jobs in the gateway's job table, decided or not: one entry per job the log holds."),
	}
}

// MetricNames lists every metric family the gateway exports, for the
// docs/metrics.md coverage test.
func MetricNames() []string {
	return newGWMetrics().reg.Names()
}
