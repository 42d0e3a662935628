package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/determinism"
	"repro/internal/graph"
)

// What the external tests of this package (package core_test) need of its
// internals. They run live clusters on wire's transport, and wire imports
// core, so only an external test can import both.

var (
	FastLine    = fastLine
	ParJob      = parJob
	ChainJob    = chainJob
	MustCluster = mustCluster
	RunAll      = runAll
	HierTopo    = hierTopo
	NewHost     = newHost
)

func (c *Cluster) StartBootstrap() { c.startBootstrap() }

func (c *Cluster) FinishBootstrap() error { return c.finishBootstrap() }

// SetProbeTimeout shortens probeTimeout and returns the restore.
func SetProbeTimeout(d time.Duration) (restore func()) {
	old := probeTimeout
	probeTimeout = d
	return func() { probeTimeout = old }
}

// RouteDigest hashes every local site's routing answers into one FNV-64a
// value, sites in ID order (see Site.routeDigest). TestHierRouteDigestPinned
// pins it, so a change that moves one route at one site fails there instead
// of only drifting a ratio. Sites that do not answer are left out.
func (c *Cluster) RouteDigest() uint64 {
	sums := c.SiteRouteDigests()
	h := fnv.New64a()
	for _, id := range determinism.SortedKeys(sums) {
		writeWord(h, uint64(id))
		writeWord(h, sums[id])
	}
	return h.Sum64()
}

// SiteRouteDigests reports each answering local site's Site.routeDigest.
func (c *Cluster) SiteRouteDigests() map[graph.NodeID]uint64 {
	type siteSum struct {
		id  graph.NodeID
		sum uint64
	}
	sums := make(map[graph.NodeID]uint64)
	for _, s := range probe(c, func(s *Site) siteSum { return siteSum{s.id, s.routeDigest()} }) {
		sums[s.id] = s.sum
	}
	return sums
}

// routeDigest hashes this site's routing answers: each destination its
// router holds state for, with the next hop (-1 for none) and the
// distance's bits, then the sphere. Zero before the bootstrap completes.
func (s *Site) routeDigest() uint64 {
	if s.table == nil {
		return 0
	}
	h := fnv.New64a()
	for _, dest := range s.table.Destinations() {
		nh, ok := s.table.NextHop(dest)
		if !ok {
			nh = -1
		}
		writeWord(h, uint64(dest))
		writeWord(h, uint64(nh))
		writeWord(h, math.Float64bits(s.table.Dist(dest)))
	}
	for _, m := range s.pcs {
		writeWord(h, uint64(m))
	}
	return h.Sum64()
}

func writeWord(h hash.Hash64, v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

// walkSummary is Summarize as it was computed before the sites tallied their
// facts: a walk over every job ever submitted, the log's anomalies and each
// site's routing table, read directly. It is the reference the tallies are
// held to (TestSummarizeMatchesWalk); call it after Run has drained.
func (c *Cluster) walkSummary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{RejectedByStage: make(map[RejectStage]int)}
	var latencySum float64
	var latencyN int
	var acsSum, acsN float64
	for _, j := range c.jobs {
		s.Submitted++
		switch j.Outcome {
		case AcceptedLocal:
			s.AcceptedLocal++
		case AcceptedDistributed:
			s.AcceptedDistributed++
		case Rejected:
			s.Rejected++
			s.RejectedByStage[j.RejectStage]++
		case Pending:
			s.Undecided++
		}
		if j.Outcome != Pending {
			latency := j.DecisionAt - j.Arrival
			latencySum += latency
			latencyN++
			s.DecisionLatencies[sort.SearchFloat64s(LatencyBounds[:], latency)]++
		}
		if j.ACSSize > 0 {
			acsSum += float64(j.ACSSize)
			acsN++
		}
		if j.Accepted() {
			switch {
			case j.MetDeadline():
				s.CompletedOnTime++
			case j.Done:
				s.CompletedLate++
			default:
				s.AcceptedNotCompleted++
			}
		}
	}
	st := c.tr.Stats()
	if s.Submitted > 0 {
		s.GuaranteeRatio = float64(s.AcceptedLocal+s.AcceptedDistributed) / float64(s.Submitted)
		s.MessagesPerJob = float64(st.Messages()-st.ControlMessages()) / float64(s.Submitted)
	}
	if latencyN > 0 {
		s.MeanDecisionLatency = latencySum / float64(latencyN)
	}
	if acsN > 0 {
		s.MeanACSSize = acsSum / acsN
	}
	s.Messages, s.Bytes = st.Messages(), st.Bytes()
	s.ControlMessages, s.ControlBytes = st.ControlMessages(), st.ControlBytes()
	s.Dropped, s.CrossRegionMessages = st.Dropped(), st.CrossMessages()
	for _, e := range c.log {
		switch e.Kind {
		case EvViolation:
			s.Violations++
		case EvDisruption:
			s.Disruptions++
		}
	}
	for _, site := range c.local {
		if site.table != nil {
			s.RoutingTableBytes = max(s.RoutingTableBytes, site.table.StateBytes())
			s.RoutingEntries = max(s.RoutingEntries, site.table.StateEntries())
		}
	}
	return s
}
