package core

//lint:file-allow wallclock -- the probe timeout guards callers of a wall-clock transport that was closed under them; on virtual time a probe is a direct read and never touches the clock

import (
	"time"

	"repro/internal/core/membership"
	"repro/internal/graph"
)

// probeTimeout bounds every execution-context probe on wall-clock runtimes:
// a closed transport silently drops the probe callback (no context is left
// to run it), so an unbounded receive would hang forever. A variable only
// so tests can shorten it.
var probeTimeout = 5 * time.Second

// probe evaluates read in every local site's execution context and returns
// the answers. On virtual time that is a direct read in site order: between
// runs nothing else is executing. On wall-clock runtimes the site's
// goroutine owns its state, so the read goes through the transport and the
// answers come back in any order; sites that do not answer within
// probeTimeout are missing from the result, which callers treat as "no".
func probe[T any](c *Cluster, read func(*Site) T) []T {
	out := make([]T, 0, len(c.local))
	if c.virtualTime() {
		for _, s := range c.local {
			out = append(out, read(s))
		}
		return out
	}
	answers := make(chan T, len(c.local))
	for _, s := range c.local {
		c.tr.After(s.id, 0, func() { answers <- read(s) })
	}
	timeout := time.After(probeTimeout)
	for range c.local {
		select {
		case v := <-answers:
			out = append(out, v)
		case <-timeout:
			return out
		}
	}
	return out
}

// probeAll reports whether pred holds at every local site; an unanswered
// probe counts as false.
func probeAll(c *Cluster, pred func(*Site) bool) bool {
	answers := probe(c, pred)
	for _, ok := range answers {
		if !ok {
			return false
		}
	}
	return len(answers) == len(c.local)
}

// AllIdle reports whether every local site has released its lock, drained
// its deferred queue and closed its transactions — the expected state once
// the network has quiesced. False on a closed or unresponsive transport.
func (c *Cluster) AllIdle() bool { return probeAll(c, (*Site).idle) }

// ready reports whether the routing bootstrap has completed at every local
// site. False when the transport is closed or unresponsive.
func (c *Cluster) ready() bool {
	return probeAll(c, func(s *Site) bool { return s.table != nil })
}

// RoutingState reports the largest per-site routing-state footprint across
// the local sites — the hierarchy's O(√n) headline versus the flat table's
// O(n). Zero before the bootstrap completes or when the transport is closed.
func (c *Cluster) RoutingState() (maxBytes, maxEntries int) {
	for _, st := range probe(c, (*Site).routingState) {
		maxBytes, maxEntries = max(maxBytes, st[0]), max(maxEntries, st[1])
	}
	return maxBytes, maxEntries
}

// MembershipSnapshots reports each local site's membership view; empty when
// membership is disabled or the transport is closed.
func (c *Cluster) MembershipSnapshots() []membership.Snapshot {
	if !c.membershipOn() {
		return nil
	}
	return probe(c, func(s *Site) membership.Snapshot { return s.member.Snapshot() })
}

// ReservationJobIDs reports, per local site, the distinct job IDs with
// committed reservations in that site's plan (leak detection: none may be
// of a rejected job). Sites with none, or that did not answer, are absent.
func (c *Cluster) ReservationJobIDs() map[graph.NodeID][]string {
	type held struct {
		site graph.NodeID
		jobs []string
	}
	out := make(map[graph.NodeID][]string)
	for _, h := range probe(c, func(s *Site) held {
		seen := make(map[string]bool)
		var jobs []string
		for _, r := range s.plan.Reservations() {
			if !seen[r.Job] {
				seen[r.Job] = true
				jobs = append(jobs, r.Job)
			}
		}
		return held{s.id, jobs}
	}) {
		if len(h.jobs) > 0 {
			out[h.site] = h.jobs
		}
	}
	return out
}
