// Package schedule implements the per-site local scheduler of the paper:
// a reservation plan for the site's computation processor.
//
// The plan answers the two questions RTDS asks of a site:
//
//   - local satisfiability (paper §5, §10): can a set of tasks, each with a
//     release, a deadline and an execution duration, be inserted in-between
//     the reservations already accepted, meeting every deadline?
//   - surplus (paper §2): the ratio of idle time to the length of an
//     observational window.
//
// Two plan implementations are provided. NonPreemptivePlan places each task
// in one contiguous slot using earliest-fit in EDF order — a conservative
// (sound-accept) heuristic, since exact non-preemptive feasibility is
// NP-hard. PreemptivePlan implements the paper's §13 extension with an exact
// preemptive-EDF feasibility test.
//
// Admission is two-phase to match the protocol: Admit computes a Ticket
// (tentative placements) without changing the plan; Commit applies a ticket.
// A version counter detects plans mutated between Admit and Commit — which
// the RTDS locking discipline prevents, but the plan verifies anyway.
package schedule

import (
	"errors"
	"math"
	"sort"
)

// Request asks for one task's execution: Duration time units somewhere
// inside [Release, Deadline].
type Request struct {
	Job      string  // opaque job identifier, used for cancellation
	Task     int     // task identifier within the job
	Release  float64 // earliest start r(t)
	Deadline float64 // latest completion d(t)
	Duration float64 // execution time on this site
}

// Valid reports whether the request window can possibly hold the duration.
func (r Request) Valid() bool {
	return r.Duration > 0 && !math.IsNaN(r.Release) && !math.IsNaN(r.Deadline) &&
		r.Release+r.Duration <= r.Deadline+timeEps
}

// Reservation is a committed (or tentatively placed) execution slot.
type Reservation struct {
	Job   string
	Task  int
	Start float64
	End   float64
}

// timeEps absorbs float drift in feasibility comparisons.
const timeEps = 1e-9

// Plan is the interface the RTDS site logic programs against.
type Plan interface {
	// Admit tests whether reqs can all be scheduled alongside the current
	// commitments, no earlier than now. On success it returns a ticket that
	// can later be committed. Admit does not modify the plan.
	Admit(now float64, reqs []Request) (*Ticket, bool)
	// Commit applies a previously admitted ticket. It fails if the plan
	// changed since Admit in a way that invalidates the ticket.
	Commit(t *Ticket) error
	// CancelJob removes every reservation of the given job (used on aborts).
	// It reports how many reservations were removed.
	CancelJob(job string) int
	// Surplus is the idle fraction of [now, now+window] (paper §2).
	Surplus(now, window float64) float64
	// Reservations lists current commitments sorted by start time.
	Reservations() []Reservation
	// NewSession starts an incremental placement session (one job at a
	// time) used by the whole-DAG local guarantee test.
	NewSession(now float64) PlacementSession
	// Preemptive reports which admission semantics the plan uses.
	Preemptive() bool
}

// Ticket is the result of a successful Admit: the tentative placements plus
// the plan version they were computed against.
type Ticket struct {
	Placements []Reservation
	Requests   []Request
	now        float64 // the Admit-time clock, used when revalidating
	version    uint64
	owner      Plan
}

// ---------------------------------------------------------------------------
// Non-preemptive plan

// NonPreemptivePlan keeps committed reservations as a sorted list of
// non-overlapping intervals and answers gap queries by binary search: since
// the intervals are disjoint, their End times are sorted too, so "first
// reservation that could block a slot starting at t" is a log-time lookup.
// Tentative placements during Admit live in a small reusable scratch overlay
// instead of a full copy of the committed set. The zero value is not usable;
// call NewNonPreemptive. Plans are not safe for concurrent use; every site
// drives its plan from a single execution context.
type NonPreemptivePlan struct {
	res     []Reservation // sorted by Start, pairwise disjoint
	version uint64
	scratch []Reservation // reusable Admit overlay (capacity retained)
	order   []int         // reusable Admit EDF ordering (capacity retained)
	place   []Reservation // reusable Admit placement buffer (capacity retained)
}

// NewNonPreemptive returns an empty non-preemptive plan.
func NewNonPreemptive() *NonPreemptivePlan {
	return &NonPreemptivePlan{}
}

// Preemptive implements Plan.
func (p *NonPreemptivePlan) Preemptive() bool { return false }

// Reservations implements Plan.
func (p *NonPreemptivePlan) Reservations() []Reservation {
	return append([]Reservation(nil), p.res...)
}

// Admit implements Plan: earliest-fit insertion in EDF (deadline) order.
// Placements of earlier requests constrain later ones within the same call.
//
// The admit-reject path is allocation-free in the steady state: the EDF
// ordering and the tentative placements live in scratch buffers that keep
// their capacity across calls, and the ordering uses an inlined stable
// insertion sort (sort.SliceStable would box the slice into an interface
// and allocate its comparator closure on every call). Only a successful
// admission allocates — the Ticket it hands out.
//
//lint:hotpath -- Admit runs once per enroll/validate message per site; the reject path must not allocate
func (p *NonPreemptivePlan) Admit(now float64, reqs []Request) (*Ticket, bool) {
	for _, r := range reqs {
		if !r.Valid() {
			return nil, false
		}
	}
	if cap(p.order) < len(reqs) {
		//lint:allow hotalloc -- scratch grows to the high-water request count once, then is reused
		p.order = make([]int, len(reqs))
	}
	order := p.order[:len(reqs)]
	for i := range order {
		order[i] = i
	}
	// Stable by construction: order starts as the identity permutation and
	// insertion sort never reorders equal elements.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && admitLess(reqs[order[j]], reqs[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	if cap(p.place) < len(reqs) {
		//lint:allow hotalloc -- scratch grows to the high-water request count once, then is reused
		p.place = make([]Reservation, len(reqs))
	}
	tentative := p.place[:len(reqs)]
	overlay := p.scratch[:0]
	for _, idx := range order {
		r := reqs[idx]
		start, ok := earliestFitOverlay(p.res, overlay, math.Max(now, r.Release), r.Deadline, r.Duration)
		if !ok {
			p.scratch = overlay
			return nil, false
		}
		pl := Reservation{Job: r.Job, Task: r.Task, Start: start, End: start + r.Duration}
		overlay = insertSorted(overlay, pl)
		tentative[idx] = pl
	}
	p.scratch = overlay
	//lint:allow hotalloc -- a successful admission hands the ticket out of the plan; this is the API product, not overhead
	placements := make([]Reservation, len(reqs))
	copy(placements, tentative)
	//lint:allow hotalloc -- the ticket is the caller's to keep; allocated only on success
	return &Ticket{
		Placements: placements,
		//lint:allow hotalloc -- the ticket must own a copy of the requests; allocated only on success
		Requests: append([]Request(nil), reqs...),
		now:      now,
		version:  p.version,
		owner:    p,
	}, true
}

// admitLess is the EDF admission order: deadline, then release, then task
// id as the deterministic tie-break.
func admitLess(a, b Request) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.Task < b.Task
}

// searchEndAbove returns the index of the first reservation whose End lies
// strictly after t (mod timeEps). Reservations are disjoint and sorted by
// Start, so their Ends are sorted as well and the lookup is binary.
func searchEndAbove(res []Reservation, t float64) int {
	return sort.Search(len(res), func(i int) bool { return res[i].End > t+timeEps })
}

// earliestFitOverlay finds the earliest start >= from with [start, start+dur]
// disjoint from the union of base and extra, and start+dur <= deadline. Both
// slices are sorted by Start and the union is pairwise disjoint (extra holds
// tentative placements carved out of the union's gaps). Binary search skips
// every interval that ends before `from`; the walk then proceeds in Start
// order over the merged view.
func earliestFitOverlay(base, extra []Reservation, from, deadline, dur float64) (float64, bool) {
	start := from
	i := searchEndAbove(base, start)
	j := searchEndAbove(extra, start)
	for i < len(base) || j < len(extra) {
		var blk Reservation
		fromBase := j >= len(extra) || (i < len(base) && base[i].Start <= extra[j].Start)
		if fromBase {
			blk = base[i]
		} else {
			blk = extra[j]
		}
		if blk.End <= start+timeEps {
			// Entirely before the candidate slot (start has jumped past it).
			if fromBase {
				i++
			} else {
				j++
			}
			continue
		}
		if blk.Start >= start+dur-timeEps {
			break // gap before this interval fits; merged view is sorted
		}
		start = blk.End // collide: jump past it
		if fromBase {
			i++
		} else {
			j++
		}
	}
	if start+dur <= deadline+timeEps {
		return start, true
	}
	return 0, false
}

func insertSorted(res []Reservation, r Reservation) []Reservation {
	i := sort.Search(len(res), func(i int) bool { return res[i].Start >= r.Start })
	res = append(res, Reservation{})
	copy(res[i+1:], res[i:])
	res[i] = r
	return res
}

// ErrStaleTicket is returned by Commit when the plan changed since Admit and
// the ticket's placements are no longer valid.
var ErrStaleTicket = errors.New("schedule: ticket is stale and placements now conflict")

// Commit implements Plan.
func (p *NonPreemptivePlan) Commit(t *Ticket) error {
	if t == nil || t.owner != Plan(p) {
		return errors.New("schedule: ticket does not belong to this plan")
	}
	if t.version != p.version {
		// Plan changed since Admit: re-verify every placement still fits.
		// The only committed interval that can overlap pl is the first one
		// ending after pl.Start (the set is disjoint and sorted).
		for _, pl := range t.Placements {
			if i := searchEndAbove(p.res, pl.Start); i < len(p.res) && p.res[i].Start < pl.End-timeEps {
				return ErrStaleTicket
			}
		}
	}
	p.res = mergeReservations(p.res, t.Placements)
	p.version++
	return nil
}

// mergeReservations merges the sorted-by-Start placements `add` into the
// sorted committed set in one backward pass (O(n+k) moves instead of one
// O(n) memmove per placement).
func mergeReservations(res, add []Reservation) []Reservation {
	if len(add) == 0 {
		return res
	}
	sorted := make([]Reservation, len(add))
	copy(sorted, add)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	n, k := len(res), len(sorted)
	res = append(res, sorted...) // grow; contents beyond n are overwritten below
	i, j, w := n-1, k-1, n+k-1
	for j >= 0 {
		if i >= 0 && res[i].Start > sorted[j].Start {
			res[w] = res[i]
			i--
		} else {
			res[w] = sorted[j]
			j--
		}
		w--
	}
	return res
}

// CancelJob implements Plan.
func (p *NonPreemptivePlan) CancelJob(job string) int {
	kept := p.res[:0]
	removed := 0
	for _, r := range p.res {
		if r.Job == job {
			removed++
		} else {
			kept = append(kept, r)
		}
	}
	p.res = kept
	if removed > 0 {
		p.version++
	}
	return removed
}

// Surplus implements Plan: fraction of [now, now+window] not covered by
// reservations. Binary search finds the first reservation intersecting the
// window; the scan stops at the first one starting past it, so cost is
// proportional to the work inside the window, not the plan size.
func (p *NonPreemptivePlan) Surplus(now, window float64) float64 {
	if window <= 0 {
		return 0
	}
	end := now + window
	busy := 0.0
	for i := sort.Search(len(p.res), func(i int) bool { return p.res[i].End > now }); i < len(p.res); i++ {
		r := p.res[i]
		if r.Start >= end {
			break
		}
		busy += math.Min(r.End, end) - math.Max(r.Start, now)
	}
	s := (window - busy) / window
	if s < 0 {
		return 0
	}
	return s
}
