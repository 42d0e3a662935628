package hier

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

const distEps = 1e-9

// Landmark is one line of a site's landmark vector: the best known way
// toward a region's landmark.
type Landmark struct {
	Site    graph.NodeID // the region's landmark
	Dist    float64      // accumulated delay from the landmark
	NextHop graph.NodeID // neighbor to forward to
	Hops    int          // edges on the advertisement path
}

// landmarkBytes approximates the encoded size of one landmark-vector line:
// region (2), landmark site (4), distance (8), hops (2).
const landmarkBytes = 16

// better reports whether candidate c should replace l (deterministic
// tie-breaking mirroring routing.Route.better: delay, then hops, then
// next-hop ID).
func (l Landmark) better(c Landmark) bool {
	if c.Dist < l.Dist-distEps {
		return true
	}
	if c.Dist > l.Dist+distEps {
		return false
	}
	if c.Hops != l.Hops {
		return c.Hops < l.Hops
	}
	return c.NextHop < l.NextHop
}

// LandmarkAd is the constant-size advertisement a landmark floods through
// the network; every re-forwarding site accumulates its own best distance
// into it. The "pcs." prefix classifies it as bootstrap control traffic in
// the simnet stats, exactly like the flat protocol's table messages.
type LandmarkAd struct {
	Region   int
	Landmark graph.NodeID
	Dist     float64 // sender's best known delay from the landmark
	Hops     int     // edges on the sender's advertisement path
}

// Kind implements simnet.Payload.
func (LandmarkAd) Kind() string { return "pcs.landmark" }

// SizeBytes implements simnet.Payload: header plus one landmark line.
func (LandmarkAd) SizeBytes() int { return 8 + landmarkBytes }

// Table is one site's two-level routing state: the exact intra-region
// table plus the landmark vector. It implements routing.Router.
type Table struct {
	Self  graph.NodeID
	lay   *Layout
	intra *routing.Table
	vec   []Landmark // by region; Site < 0 marks a region not yet reached
	known int        // regions with a landmark line
}

// unknownLandmark fills the vector slots of regions whose advertisement has
// not arrived.
var unknownLandmark = Landmark{Site: -1}

// NewTable assembles a hierarchical table from a finished intra-region
// bootstrap and a landmark vector indexed by region, Site < 0 marking a
// region with no line. The vector is owned by the table afterwards.
func NewTable(self graph.NodeID, lay *Layout, intra *routing.Table, vec []Landmark) *Table {
	t := &Table{Self: self, lay: lay, intra: intra, vec: vec}
	for _, lm := range vec {
		if lm.Site >= 0 {
			t.known++
		}
	}
	return t
}

// Layout exposes the shared region structure.
func (t *Table) Layout() *Layout { return t.lay }

// Intra exposes the exact intra-region table (the membership layer's
// repair floods operate on it).
func (t *Table) Intra() *routing.Table { return t.intra }

// SetIntra swaps in a repaired intra-region table, keeping the landmark
// vector (membership route repair after a death inside the region).
func (t *Table) SetIntra(intra *routing.Table) { t.intra = intra }

// landmark returns the vector line for region r, if the region is known.
func (t *Table) landmark(r int) (Landmark, bool) {
	lm := t.vec[r]
	return lm, lm.Site >= 0
}

// NextHop implements routing.Router: intra-region destinations follow the
// exact table; any other destination follows the landmark gradient of its
// region until the message enters that region.
func (t *Table) NextHop(dest graph.NodeID) (graph.NodeID, bool) {
	if dest == t.Self {
		return 0, false
	}
	if t.lay.SameRegion(t.Self, dest) {
		return t.intra.NextHop(dest)
	}
	lm, ok := t.landmark(t.lay.Region(dest))
	if !ok {
		return 0, false
	}
	return lm.NextHop, true
}

// Dist implements routing.Router. For destinations outside the local
// region the distance toward the region's landmark is returned — exact for
// the landmark itself, a routing estimate for its region mates.
func (t *Table) Dist(dest graph.NodeID) float64 {
	if t.lay.SameRegion(t.Self, dest) {
		return t.intra.Dist(dest)
	}
	if lm, ok := t.landmark(t.lay.Region(dest)); ok {
		return lm.Dist
	}
	return math.Inf(1)
}

// Destinations implements routing.Router: the region mates plus every
// known landmark, in increasing ID order — a merge of the intra table's
// sorted destinations with the sorted landmark sites. The landmarks are
// the routing layer's cross-region targets; no commit sphere reaches them,
// because every ACS stays inside its initiator's region.
func (t *Table) Destinations() []graph.NodeID {
	mates := t.intra.Destinations()
	lms := make([]graph.NodeID, 0, t.known)
	for _, lm := range t.vec {
		if lm.Site >= 0 {
			lms = append(lms, lm.Site)
		}
	}
	slices.Sort(lms)
	lms = slices.Compact(lms)
	out := make([]graph.NodeID, 0, len(mates)+len(lms))
	i, j := 0, 0
	for i < len(mates) && j < len(lms) {
		switch a, b := mates[i], lms[j]; {
		case a < b:
			out = append(out, a)
			i++
		case b < a:
			out = append(out, b)
			j++
		default: // the region's own landmark
			out = append(out, a)
			i++
			j++
		}
	}
	out = append(out, mates[i:]...)
	return append(out, lms[j:]...)
}

// Sphere implements routing.Router: the radius-h PCS within the region.
// A commit sphere never crosses the region border.
func (t *Table) Sphere(h int) []graph.NodeID { return t.intra.Sphere(h) }

// SphereDelayDiameter implements routing.Router.
func (t *Table) SphereDelayDiameter(h int) float64 { return t.intra.SphereDelayDiameter(h) }

// StateBytes implements routing.Router: the intra table plus the known
// lines of the landmark vector.
func (t *Table) StateBytes() int { return t.intra.StateBytes() + 8 + landmarkBytes*t.known }

// StateEntries implements routing.Router.
func (t *Table) StateEntries() int { return t.intra.StateEntries() + t.known }

// AdjacentLandmarks lists the landmarks of the regions adjacent to this
// site's region that the landmark vector can reach, in increasing site-ID
// order — where a landmark sends its region's membership digest.
func (t *Table) AdjacentLandmarks() []graph.NodeID {
	var out []graph.NodeID
	for _, r := range t.lay.Adjacent[t.lay.Region(t.Self)] {
		if lm, ok := t.landmark(r); ok {
			out = append(out, lm.Site)
		}
	}
	slices.Sort(out)
	return out
}

// MaxVecHops reports the longest advertisement path in the vector — a
// component of the routed-message TTL bound under hierarchy.
func (t *Table) MaxVecHops() int {
	max := 0
	for _, lm := range t.vec {
		if lm.Site >= 0 && lm.Hops > max {
			max = lm.Hops
		}
	}
	return max
}

// ---------------------------------------------------------------------------
// Per-site bootstrap state machine

// Bootstrap runs one site's part of the two-phase hierarchical bootstrap:
// the intra-region interrupted distance-vector protocol (phase 1, a
// routing.Node over intra-region links only) and the landmark-gradient
// flood (phase 2, LandmarkAd relaying). The two phases run concurrently;
// the flood quiesces on its own because only strict improvements are
// re-forwarded. The owner drives it exactly like a routing.Node: deliver
// incoming payloads, then collect the table once the network drains.
type Bootstrap struct {
	self  graph.NodeID
	lay   *Layout
	intra *routing.Node
	nbrs  []graph.Edge   // every direct link, ascending by neighbor ID
	vec   []Landmark     // by region; Site < 0 marks a region not yet reached
	known int            // regions with a landmark line
	table *routing.Table // finished intra table
	send  func(to graph.NodeID, p simnet.Payload)
}

// NewBootstrap creates the state machine for one site. neighbors is the
// site's full adjacency; the intra-region subset drives phase 1 and the
// full set relays phase 2.
func NewBootstrap(self graph.NodeID, neighbors []graph.Edge, lay *Layout,
	send func(to graph.NodeID, p simnet.Payload)) *Bootstrap {
	b := &Bootstrap{
		self: self,
		lay:  lay,
		nbrs: slices.Clone(neighbors),
		vec:  make([]Landmark, lay.Regions),
		send: send,
	}
	slices.SortFunc(b.nbrs, func(a, b graph.Edge) int { return cmp.Compare(a.To, b.To) })
	for r := range b.vec {
		b.vec[r] = unknownLandmark
	}
	var intraNbrs []graph.Edge
	for _, e := range b.nbrs {
		if lay.SameRegion(self, e.To) {
			intraNbrs = append(intraNbrs, e)
		}
	}
	region := lay.Region(self)
	b.intra = routing.NewNode(self, intraNbrs, lay.Rounds[region], send,
		func(t *routing.Table) { b.table = t })
	return b
}

// Start begins both phases: the intra-region round 0 broadcast, and — when
// this site is its region's landmark — the advertisement flood.
func (b *Bootstrap) Start() {
	b.intra.Start()
	region := b.lay.Region(b.self)
	if b.lay.Landmarks[region] == b.self {
		b.set(region, Landmark{Site: b.self, Dist: 0, NextHop: b.self, Hops: 0})
	}
}

// HandleTable feeds an intra-region table message to phase 1.
func (b *Bootstrap) HandleTable(from graph.NodeID, msg routing.TableMsg) {
	b.intra.HandleTable(from, msg)
}

// HandleAd relaxes one landmark advertisement: if it improves this site's
// entry for the advertised region, the entry is updated and the improved
// advertisement re-broadcast to every neighbor. Non-improvements are
// dropped, which is what terminates the flood; so are ads that cannot have
// come over a real link or name no real region.
//
//lint:hotpath -- the landmark flood is most of a wide network's bootstrap messages: a dropped ad must cost nothing, an improving one only its broadcast
func (b *Bootstrap) HandleAd(from graph.NodeID, ad LandmarkAd) {
	i, ok := graph.SearchEdges(b.nbrs, from)
	if !ok || ad.Region < 0 || ad.Region >= len(b.vec) || ad.Landmark < 0 {
		return
	}
	cand := Landmark{Site: ad.Landmark, Dist: ad.Dist + b.nbrs[i].Delay, NextHop: from, Hops: ad.Hops + 1}
	if cur := b.vec[ad.Region]; cur.Site >= 0 && !cur.better(cand) {
		return
	}
	b.set(ad.Region, cand)
}

// set installs region's new best line and advertises it to every neighbor,
// the ad boxed once: the payload is immutable, so every neighbor receives
// the same one.
func (b *Bootstrap) set(region int, lm Landmark) {
	if b.vec[region].Site < 0 {
		b.known++
	}
	b.vec[region] = lm
	var ad simnet.Payload = LandmarkAd{Region: region, Landmark: lm.Site, Dist: lm.Dist, Hops: lm.Hops} //lint:allow hotalloc -- the one box an improvement costs, shared by every neighbor's copy
	for _, e := range b.nbrs {
		b.send(e.To, ad)
	}
}

// Done reports whether both phases have completed at this site: the intra
// rounds ran out and every region's landmark is reachable.
func (b *Bootstrap) Done() bool {
	return b.table != nil && b.known == b.lay.Regions
}

// Finish assembles the hierarchical table. Call only after the network has
// drained (Done reports true); the vector is handed over.
func (b *Bootstrap) Finish() *Table {
	return NewTable(b.self, b.lay, b.table, b.vec)
}

// MissingRegions lists the regions with no landmark entry yet (diagnostic
// for a bootstrap that drained without converging), ascending.
func (b *Bootstrap) MissingRegions() []int {
	var out []int
	for r, lm := range b.vec {
		if lm.Site < 0 {
			out = append(out, r)
		}
	}
	return out
}
