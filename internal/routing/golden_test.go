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

// routeGolden pins every site's routes (destination, next hop, the
// distance's bits and both hop metrics) after routing.Build at radius 2 and
// 3 and after hier.Build. It was recorded while every round still sent the
// whole table, from routes an older golden had held to the map-backed
// tables' (the hier lines to those left when the landmark flood went).
// Rounds that send only the changed lines reproduce it unchanged.
var routeGolden = map[string]string{
	"flat/ring48-unit/r3":       "4e423377cf25bbc5",
	"flat/ring48-unit/r5":       "656f9a0ebf65692d",
	"hier/ring48-unit":          "7f1b38643f6c80d9",
	"flat/ring64-wide/r3":       "6e4bf651b3eeef89",
	"flat/ring64-wide/r5":       "77f24e1213a2fed0",
	"hier/ring64-wide":          "05281214deb4c51b",
	"flat/grid8x8-unit/r3":      "dfc36973253e7b09",
	"flat/grid8x8-unit/r5":      "925ab631a5461c91",
	"hier/grid8x8-unit":         "11035e0d73f2b8e6",
	"flat/grid10x10-std/r3":     "b1fb715aaa6f5cc1",
	"flat/grid10x10-std/r5":     "bdf6c4321d235b05",
	"hier/grid10x10-std":        "6c359a101db420a2",
	"flat/random96-std/r3":      "ad6a45ed73f17fb8",
	"flat/random96-std/r5":      "f4ceac1330c827fe",
	"hier/random96-std":         "e2ebf3570c17ee21",
	"flat/random200-wide/r3":    "7fb2e9cd25c0c222",
	"flat/random200-wide/r5":    "5d90650c104c20c7",
	"hier/random200-wide":       "e1b6f7330e7bc481",
	"flat/geometric80-std/r3":   "4a21820eb98ba649",
	"flat/geometric80-std/r5":   "72e90dd2e7843f7e",
	"hier/geometric80-std":      "ec5f2bcb343be78d",
	"flat/geometric150-wide/r3": "83c98d353c75ed06",
	"flat/geometric150-wide/r5": "e3da2f2f0085bc89",
	"hier/geometric150-wide":    "f75652016ef1bc41",
}

// costGolden pins the same bootstraps' message and byte counts. Messages
// follow from the topology and the round counts alone; bytes count the
// table lines sent. They were re-pinned when a round began to send only the
// lines that changed (the messages and every route above stayed as they
// were).
var costGolden = map[string]bootCost{
	"flat/ring48-unit/r3":       {288, 13056},
	"flat/ring48-unit/r5":       {480, 20736},
	"hier/ring48-unit":          {930, 16848},
	"flat/ring64-wide/r3":       {384, 17408},
	"flat/ring64-wide/r5":       {640, 27648},
	"hier/ring64-wide":          {1464, 26112},
	"flat/grid8x8-unit/r3":      {672, 73472},
	"flat/grid8x8-unit/r5":      {1120, 141184},
	"hier/grid8x8-unit":         {1246, 30256},
	"flat/grid10x10-std/r3":     {1080, 125472},
	"flat/grid10x10-std/r5":     {1800, 258656},
	"hier/grid10x10-std":        {2558, 62208},
	"flat/random96-std/r3":      {1152, 389920},
	"flat/random96-std/r5":      {1920, 783232},
	"hier/random96-std":         {1490, 44080},
	"flat/random200-wide/r3":    {2400, 1020992},
	"flat/random200-wide/r5":    {4000, 3057792},
	"hier/random200-wide":       {4036, 121584},
	"flat/geometric80-std/r3":   {3810, 1266704},
	"flat/geometric80-std/r5":   {6350, 1674800},
	"hier/geometric80-std":      {1708, 85056},
	"flat/geometric150-wide/r3": {7182, 3040384},
	"flat/geometric150-wide/r5": {11970, 5200992},
	"hier/geometric150-wide":    {4940, 263296},
}

type bootCost struct{ msgs, bytes int64 }

// goldenRuns runs every golden bootstrap and reports, per key, the digest
// of every site's routes and the construction's cost.
func goldenRuns(t *testing.T) (routes map[string]string, cost map[string]bootCost) {
	routes, cost = map[string]string{}, map[string]bootCost{}
	record := func(key string, g *graph.Graph, tables map[graph.NodeID]*routing.Table, stats *simnet.Stats) {
		d := newDigest()
		for id := graph.NodeID(0); int(id) < g.Len(); id++ {
			d.int(int(id))
			d.routes(tables[id])
		}
		routes[key] = d.sum()
		cost[key] = bootCost{stats.Messages(), stats.Bytes()}
	}
	for _, tc := range goldenTopos() {
		for _, h := range []int{2, 3} {
			rounds := routing.RoundsForRadius(h)
			tables, stats, err := routing.Build(tc.g, rounds)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			record(fmt.Sprintf("flat/%s/r%d", tc.name, rounds), tc.g, tables, stats)
		}
		tables, _, stats, err := hier.Build(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		record("hier/"+tc.name, tc.g, tables, stats)
	}
	return routes, cost
}

func goldenKeys() []string {
	var keys []string
	for _, tc := range goldenTopos() {
		keys = append(keys, "flat/"+tc.name+"/r3", "flat/"+tc.name+"/r5", "hier/"+tc.name)
	}
	return keys
}

// TestRoutesMatchGolden: routing.Build at radius 2 and 3 and hier.Build
// yield, at every site, the pinned (dest, next hop, Dist bits, hop metrics).
func TestRoutesMatchGolden(t *testing.T) {
	got, _ := goldenRuns(t)
	for _, key := range goldenKeys() {
		if got[key] != routeGolden[key] {
			t.Errorf("%q: %q, // golden %q", key, got[key], routeGolden[key])
		}
	}
}

// TestBootstrapCostMatchesGolden: the same bootstraps send the pinned
// number of messages and bytes.
func TestBootstrapCostMatchesGolden(t *testing.T) {
	_, got := goldenRuns(t)
	for _, key := range goldenKeys() {
		if got[key] != costGolden[key] {
			t.Errorf("%q: {%d, %d}, // golden %v", key, got[key].msgs, got[key].bytes, costGolden[key])
		}
	}
}
