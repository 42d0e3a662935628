package nodeapi

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/determinism"
	"repro/internal/metrics"
)

// latencyBuckets bound the decision-latency histogram, in virtual seconds
// (time units of the protocol clock): a local decision lands in the first
// bucket, a distributed one costs a few link round trips.
var latencyBuckets = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

func newLatencyHistogram() *metrics.Histogram {
	return metrics.NewUnregisteredHistogram(latencyBuckets)
}

// snapshot is what one scrape renders: the node's counters as they stand
// and the fold of its decision journal.
type snapshot struct {
	site                              int
	ready                             bool
	messages, bytes, dropped          int64
	byKind                            map[string]int64
	bootstrapMessages, bootstrapBytes int64
	jobs, decided, accepted           int
	violations, disruptions           int
	routingTableBytes, routingEntries int
	latency                           *metrics.Histogram
}

// scrape reads the node and folds the journal tail into the decision
// counters and the latency histogram, so that a scrape costs the decisions
// made since the last one, not the history.
func (s *Server) scrape() snapshot {
	st := s.node.Stats()
	bm, bb := s.node.BootstrapCost()
	rb, re := s.node.RoutingState()
	violations, disruptions := s.node.Anomalies()
	snap := snapshot{
		site:              int(s.node.Self()),
		ready:             s.ready.Load(),
		messages:          st.Messages(),
		bytes:             st.Bytes(),
		dropped:           st.Dropped(),
		byKind:            st.ByKind(),
		bootstrapMessages: bm,
		bootstrapBytes:    bb,
		violations:        violations,
		disruptions:       disruptions,
		routingTableBytes: rb,
		routingEntries:    re,
	}
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	tail, next, _ := s.node.DecidedSince(s.cursor, 0)
	s.cursor = next
	for _, j := range tail {
		s.decided++
		if j.Outcome == core.AcceptedLocal || j.Outcome == core.AcceptedDistributed {
			s.accepted++
		}
		s.latency.Observe(j.DecisionAt - j.Arrival)
	}
	snap.jobs = s.node.JobCount()
	snap.decided, snap.accepted, snap.latency = s.decided, s.accepted, s.latency
	return snap
}

// buildPromRegistry renders one snapshot as a Prometheus registry. Node
// statistics are cumulative counters maintained by the protocol core, so
// scrape-time construction is cheaper and simpler than keeping a live
// registry in sync. MetricNames derives the documented family set from the
// same function, so the two cannot drift.
func buildPromRegistry(st snapshot) *metrics.Registry {
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
		"Protocol messages sent since the bootstrap was sealed.").Add(float64(st.messages))
	r.NewCounter("rtds_node_bytes_total",
		"Protocol bytes sent since the bootstrap was sealed.").Add(float64(st.bytes))
	r.NewCounter("rtds_node_dropped_total",
		"Messages dropped by fault injection or overflow.").Add(float64(st.dropped))
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
		"Jobs submitted at this site.").Add(float64(st.jobs))
	r.NewCounter("rtds_node_jobs_decided_total",
		"Locally submitted jobs with a decision.").Add(float64(st.decided))
	r.NewCounter("rtds_node_jobs_accepted_total",
		"Locally submitted jobs the cluster guaranteed.").Add(float64(st.accepted))
	r.NewCounter("rtds_node_violations_total",
		"Protocol invariant violations detected by the runtime oracle.").Add(float64(st.violations))
	r.NewCounter("rtds_node_disruptions_total",
		"Fault-injection disruptions applied to this node.").Add(float64(st.disruptions))
	r.NewGauge("rtds_node_routing_table_bytes",
		"Per-site routing-state footprint in bytes (intra-region table plus landmark vector under hierarchical routing; the full table when flat).").Set(float64(st.routingTableBytes))
	r.NewGauge("rtds_node_routing_entries",
		"Destinations the local routing state resolves directly (region members plus landmarks under hierarchical routing; all sites when flat).").Set(float64(st.routingEntries))
	r.AddHistogram("rtds_node_decision_latency_seconds",
		"Decision latency of locally submitted jobs (arrival to decision), in virtual seconds.", st.latency)
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
	return buildPromRegistry(snapshot{latency: newLatencyHistogram()}).Names()
}
