package routing_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/simnet"
)

// digest hashes a sequence of integers and float bit patterns.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) float(f float64) { d.int(int(math.Float64bits(f))) }

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// routes hashes every line of a flat table: destination, next hop, the
// distance's bits and both hop metrics.
func (d *digest) routes(t *routing.Table) {
	d.int(t.Len())
	for _, dest := range t.Destinations() {
		r, _ := t.Route(dest)
		d.int(int(dest))
		d.int(int(r.NextHop))
		d.float(r.Dist)
		d.int(r.PathHops)
		d.int(r.MinHops)
	}
}

func (d *digest) stats(s *simnet.Stats) {
	d.int(int(s.Messages()))
	d.int(int(s.Bytes()))
}

// goldenTopos are the topologies the route golden pins: unit delays, where
// ties decide most routes, and ranged delays that break the triangle
// inequality, where the merge order does.
func goldenTopos() []struct {
	name string
	g    *graph.Graph
} {
	unit := graph.UnitDelay
	std := graph.DelayRange{Min: 0.05, Max: 0.3}
	wide := graph.DelayRange{Min: 1, Max: 9}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"ring48-unit", graph.Ring(48, unit, 1)},
		{"ring64-wide", graph.Ring(64, wide, 2)},
		{"grid8x8-unit", graph.Grid(8, 8, unit, 3)},
		{"grid10x10-std", graph.Grid(10, 10, std, 4)},
		{"random96-std", graph.RandomConnected(96, 4, std, 5)},
		{"random200-wide", graph.RandomConnected(200, 4, wide, 6)},
		{"geometric80-std", graph.RandomGeometric(80, 0.3, std, 7)},
		{"geometric150-wide", graph.RandomGeometric(150, 0.2, wide, 8)},
	}
}

// routeGolden was generated at the commit before the routing table became a
// sorted slice (map-backed tables): every site's routes, and the
// bootstrap's message and byte counts, must come out bit-identical from the
// flat representation. The hier/ lines were re-pinned when the landmark
// flood went: every site's intra-region routes hashed identically before
// and after, and the lines now hash those routes and the intra-region
// bootstrap's cost alone.
var routeGolden = map[string]string{
	"flat/ring48-unit/r3":       "c06984c7cef682af",
	"flat/ring48-unit/r5":       "87198d68baf1eb4d",
	"hier/ring48-unit":          "ddf6c559394ea4ff",
	"flat/ring64-wide/r3":       "c4cb1ccf8a7feafa",
	"flat/ring64-wide/r5":       "0a4aa9ebf99c57e3",
	"hier/ring64-wide":          "3a27883dd78c4727",
	"flat/grid8x8-unit/r3":      "f1630de794d35db2",
	"flat/grid8x8-unit/r5":      "fc1d88b748e8f87a",
	"hier/grid8x8-unit":         "db16193423083fdb",
	"flat/grid10x10-std/r3":     "57af0734ed644be1",
	"flat/grid10x10-std/r5":     "c64f767d07fb931a",
	"hier/grid10x10-std":        "3bd8aeb9b9fff995",
	"flat/random96-std/r3":      "7b6d1a09a1bdc22a",
	"flat/random96-std/r5":      "b2fb30738ad34f7c",
	"hier/random96-std":         "33ff49999fbb4820",
	"flat/random200-wide/r3":    "5b4abcfbeda2bff9",
	"flat/random200-wide/r5":    "f46cf07859c6545f",
	"hier/random200-wide":       "79ba906c894ca716",
	"flat/geometric80-std/r3":   "bf57f02bf3647289",
	"flat/geometric80-std/r5":   "ea9cea4d5c50a3c3",
	"hier/geometric80-std":      "e419baa22bb5324b",
	"flat/geometric150-wide/r3": "590a8a4b1a772d96",
	"flat/geometric150-wide/r5": "b03b2a5999a7cefd",
	"hier/geometric150-wide":    "fd1815cf2b17b725",
}

// TestRoutesMatchGolden: routing.Build at radius 2 and 3 and hier.Build
// yield, at every site, the same (dest, next hop, Dist bits, hop metrics)
// as the map-backed implementation did, with the same bootstrap cost.
func TestRoutesMatchGolden(t *testing.T) {
	got := map[string]string{}
	for _, tc := range goldenTopos() {
		for _, h := range []int{2, 3} {
			rounds := routing.RoundsForRadius(h)
			tables, stats, err := routing.Build(tc.g, rounds)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			d := newDigest()
			for id := graph.NodeID(0); int(id) < tc.g.Len(); id++ {
				d.int(int(id))
				d.routes(tables[id])
			}
			d.stats(stats)
			got[fmt.Sprintf("flat/%s/r%d", tc.name, rounds)] = d.sum()
		}

		tables, _, stats, err := hier.Build(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := newDigest()
		for id := graph.NodeID(0); int(id) < tc.g.Len(); id++ {
			d.int(int(id))
			d.routes(tables[id])
		}
		d.stats(stats)
		got["hier/"+tc.name] = d.sum()
	}
	for _, tc := range goldenTopos() {
		for _, key := range []string{"flat/" + tc.name + "/r3", "flat/" + tc.name + "/r5", "hier/" + tc.name} {
			if got[key] != routeGolden[key] {
				t.Errorf("%q: %q, // golden %q", key, got[key], routeGolden[key])
			}
		}
	}
}
