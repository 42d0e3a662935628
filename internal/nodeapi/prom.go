package nodeapi

import (
	"net/http"

	"repro/internal/core"
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

// buildProm renders one snapshot as a Prometheus exposition. Node
// statistics are cumulative counters maintained by the protocol core, so the
// API server keeps none of its own. MetricNames derives the documented
// family set from the same function, so the two cannot drift.
func buildProm(st snapshot) *metrics.Builder {
	sum := st.sum
	decided := sum.Submitted - sum.Undecided
	var b metrics.Builder
	ready := 0.0
	if st.ready {
		ready = 1
	}
	b.Gauge("rtds_node_ready",
		"1 once the PCS bootstrap completed and the epoch is sealed.", ready)
	b.Gauge("rtds_node_site",
		"Site ID of this node in the shared topology.", float64(st.site))
	b.Counter("rtds_node_messages_total",
		"Protocol messages sent since the bootstrap was sealed.", float64(sum.Messages))
	b.Counter("rtds_node_bytes_total",
		"Protocol bytes sent since the bootstrap was sealed.", float64(sum.Bytes))
	b.Counter("rtds_node_dropped_total",
		"Messages dropped by fault injection or overflow.", float64(sum.Dropped))
	byKind := b.Family(metrics.KindCounter, "rtds_node_messages_by_kind_total",
		"Protocol messages sent, by message kind.", "kind")
	for kind, n := range st.byKind {
		byKind.Set(float64(n), kind)
	}
	b.Counter("rtds_node_bootstrap_messages_total",
		"Messages spent on the PCS bootstrap phase.", float64(st.bootstrapMessages))
	b.Counter("rtds_node_bootstrap_bytes_total",
		"Bytes spent on the PCS bootstrap phase.", float64(st.bootstrapBytes))
	b.Counter("rtds_node_jobs_total",
		"Jobs submitted at this site.", float64(sum.Submitted))
	b.Counter("rtds_node_jobs_decided_total",
		"Locally submitted jobs with a decision.", float64(decided))
	b.Counter("rtds_node_jobs_accepted_total",
		"Locally submitted jobs the cluster guaranteed.", float64(sum.AcceptedLocal+sum.AcceptedDistributed))
	b.Counter("rtds_node_violations_total",
		"Protocol invariant violations detected by the runtime oracle.", float64(sum.Violations))
	b.Counter("rtds_node_disruptions_total",
		"Fault-injection disruptions applied to this node.", float64(sum.Disruptions))
	b.Gauge("rtds_node_routing_table_bytes",
		"Per-site routing-table footprint in bytes: one wire line per destination that rtds_node_routing_entries counts.", float64(sum.RoutingTableBytes))
	b.Gauge("rtds_node_routing_entries",
		"Destinations in the site's routing table, itself included: the sites within 2h edges when flat (h the sphere radius), its region's members under hierarchical routing.", float64(sum.RoutingEntries))
	b.Histogram("rtds_node_decision_latency_seconds",
		"Decision latency of locally submitted jobs (arrival to decision), in virtual seconds.",
		metrics.Histogram{Bounds: core.LatencyBounds[:], Counts: sum.DecisionLatencies[:], Sum: sum.MeanDecisionLatency * float64(decided)})
	return &b
}

// handleProm serves GET /metrics in the Prometheus text format.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	buildProm(s.scrape()).WriteTo(w)
}

// MetricNames lists every metric family the node exports, for the
// docs/metrics.md coverage test.
func MetricNames() []string {
	return buildProm(snapshot{}).Names()
}
