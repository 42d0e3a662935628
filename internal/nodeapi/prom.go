package nodeapi

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/determinism"
	"repro/internal/metrics"
)

// snapshot is what one scrape renders: the node's Summarize and what a
// Summary does not carry.
type snapshot struct {
	site                              int
	ready                             bool
	sum                               core.Summary
	byKind                            map[string]int64
	bootstrapMessages, bootstrapBytes int64
}

func (s *Server) scrape() snapshot {
	st := snapshot{site: int(s.node.Self()), ready: s.ready.Load(), sum: s.node.Summarize(), byKind: s.node.Stats().ByKind()}
	st.bootstrapMessages, st.bootstrapBytes = s.node.BootstrapCost()
	return st
}

// buildPromRegistry renders one snapshot as a Prometheus registry. Node
// statistics are cumulative counters maintained by the protocol core, so
// scrape-time construction is cheaper and simpler than keeping a live
// registry in sync. MetricNames derives the documented family set from the
// same function, so the two cannot drift.
func buildPromRegistry(st snapshot) *metrics.Registry {
	sum := st.sum
	decided := sum.Submitted - sum.Undecided
	r := metrics.NewRegistry()
	ready := 0.0
	if st.ready {
		ready = 1
	}
	r.NewGauge("rtds_node_ready",
		"1 once the PCS bootstrap completed and the epoch is sealed.").Set(ready)
	r.NewGauge("rtds_node_site",
		"Site ID of this node in the shared topology.").Set(float64(st.site))
	r.NewCounter("rtds_node_messages_total",
		"Protocol messages sent since the bootstrap was sealed.").Add(float64(sum.Messages))
	r.NewCounter("rtds_node_bytes_total",
		"Protocol bytes sent since the bootstrap was sealed.").Add(float64(sum.Bytes))
	r.NewCounter("rtds_node_dropped_total",
		"Messages dropped by fault injection or overflow.").Add(float64(sum.Dropped))
	byKind := r.NewCounterVec("rtds_node_messages_by_kind_total",
		"Protocol messages sent, by message kind.", "kind")
	for _, kind := range determinism.SortedKeys(st.byKind) {
		byKind.With(kind).Add(float64(st.byKind[kind]))
	}
	r.NewCounter("rtds_node_bootstrap_messages_total",
		"Messages spent on the PCS bootstrap phase.").Add(float64(st.bootstrapMessages))
	r.NewCounter("rtds_node_bootstrap_bytes_total",
		"Bytes spent on the PCS bootstrap phase.").Add(float64(st.bootstrapBytes))
	r.NewCounter("rtds_node_jobs_total",
		"Jobs submitted at this site.").Add(float64(sum.Submitted))
	r.NewCounter("rtds_node_jobs_decided_total",
		"Locally submitted jobs with a decision.").Add(float64(decided))
	r.NewCounter("rtds_node_jobs_accepted_total",
		"Locally submitted jobs the cluster guaranteed.").Add(float64(sum.AcceptedLocal + sum.AcceptedDistributed))
	r.NewCounter("rtds_node_violations_total",
		"Protocol invariant violations detected by the runtime oracle.").Add(float64(sum.Violations))
	r.NewCounter("rtds_node_disruptions_total",
		"Fault-injection disruptions applied to this node.").Add(float64(sum.Disruptions))
	r.NewGauge("rtds_node_routing_table_bytes",
		"Per-site routing-state footprint in bytes (intra-region table plus landmark vector under hierarchical routing; the full table when flat).").Set(float64(sum.RoutingTableBytes))
	r.NewGauge("rtds_node_routing_entries",
		"Destinations the local routing state resolves directly (region members plus landmarks under hierarchical routing; all sites when flat).").Set(float64(sum.RoutingEntries))
	r.AddHistogram("rtds_node_decision_latency_seconds",
		"Decision latency of locally submitted jobs (arrival to decision), in virtual seconds.",
		core.LatencyBounds[:], sum.DecisionLatencies[:], sum.MeanDecisionLatency*float64(decided))
	return r
}

// handleProm serves GET /metrics in the Prometheus text format.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	buildPromRegistry(s.scrape()).WriteTo(w)
}

// MetricNames lists every metric family the node exports, for the
// docs/metrics.md coverage test.
func MetricNames() []string {
	return buildPromRegistry(snapshot{}).Names()
}
