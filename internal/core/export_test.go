package core

import (
	"cmp"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"time"

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

// FlatTableSites lists the local sites that run a flat routing table.
func (c *Cluster) FlatTableSites() []graph.NodeID {
	var flat []graph.NodeID
	for _, s := range c.local {
		if s.hierTable == nil {
			flat = append(flat, s.id)
		}
	}
	return flat
}

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
	type siteSum struct {
		id  graph.NodeID
		sum uint64
	}
	sums := probe(c, func(s *Site) siteSum { return siteSum{s.id, s.routeDigest()} })
	slices.SortFunc(sums, func(a, b siteSum) int { return cmp.Compare(a.id, b.id) })
	h := fnv.New64a()
	for _, s := range sums {
		writeWord(h, uint64(s.id))
		writeWord(h, s.sum)
	}
	return h.Sum64()
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
