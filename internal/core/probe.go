package core

//lint:file-allow wallclock -- the probe timeout guards callers of a wall-clock transport that was closed under them; on virtual time a probe is a direct read and never touches the clock

import (
	"slices"
	"time"

	"repro/internal/core/membership"
	"repro/internal/graph"
	"repro/internal/schedule"
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
func probe[T any](c *Cluster, read func(*Site) T) []T { return probeSites(c, c.local, read) }

// probeSite is probe on one site: read's answer, or T's zero value when
// this host does not run id or the site did not answer.
func probeSite[T any](c *Cluster, id graph.NodeID, read func(*Site) T) T {
	if int(id) >= 0 && int(id) < len(c.sites) && c.sites[id] != nil {
		if out := probeSites(c, c.sites[id:id+1], read); len(out) == 1 {
			return out[0]
		}
	}
	var zero T
	return zero
}

func probeSites[T any](c *Cluster, sites []*Site, read func(*Site) T) []T {
	out := make([]T, 0, len(sites))
	if c.virtualTime() {
		for _, s := range sites {
			out = append(out, read(s))
		}
		return out
	}
	answers := make(chan T, len(sites))
	for _, s := range sites {
		c.tr.After(s.id, 0, func() { answers <- read(s) })
	}
	timeout := time.After(probeTimeout)
	for range sites {
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

// Idle reports whether every local site has released its lock, drained
// its deferred queue and closed its transactions — the expected state once
// the network has quiesced. False on a closed or unresponsive transport.
func (c *Cluster) Idle() bool { return probeAll(c, (*Site).idle) }

// ready reports whether the routing bootstrap has completed at every local
// site. False when the transport is closed or unresponsive.
func (c *Cluster) ready() bool {
	return probeAll(c, func(s *Site) bool { return s.table != nil })
}

// MembershipSnapshots reports each local site's membership view; empty when
// membership is disabled or the transport is closed.
func (c *Cluster) MembershipSnapshots() []membership.Snapshot {
	if !c.membershipOn() {
		return nil
	}
	return probe(c, func(s *Site) membership.Snapshot { return s.member.Snapshot() })
}

// ReservationJobIDs reports the distinct job IDs with committed
// reservations in the local sites' plans (leak detection: none may be of a
// rejected job), each once. Sites that did not answer are left out.
func (c *Cluster) ReservationJobIDs() []string {
	seen := make(map[string]bool)
	var jobs []string
	for _, held := range probe(c, func(s *Site) []schedule.Reservation { return s.plan.Reservations() }) {
		for _, r := range held {
			if !seen[r.Job] {
				seen[r.Job] = true
				jobs = append(jobs, r.Job)
			}
		}
	}
	return jobs
}

// SiteSphere reports a site's PCS, self excluded; nil for a site this host
// does not run.
func (c *Cluster) SiteSphere(id graph.NodeID) []graph.NodeID {
	return probeSite(c, id, func(s *Site) []graph.NodeID { return slices.Clone(s.pcs) })
}

// SitePlanReservations reports a site's committed reservations; nil for a
// site this host does not run.
func (c *Cluster) SitePlanReservations(id graph.NodeID) []schedule.Reservation {
	return probeSite(c, id, func(s *Site) []schedule.Reservation { return s.plan.Reservations() })
}
