package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func req(job string, task int, release, deadline, duration float64) Request {
	return Request{Job: job, Task: task, Release: release, Deadline: deadline, Duration: duration}
}

func mustAdmit(t *testing.T, p Plan, now float64, reqs ...Request) *Ticket {
	t.Helper()
	tk, ok := p.Admit(now, reqs)
	if !ok {
		t.Fatalf("Admit(%v) rejected", reqs)
	}
	return tk
}

func commit(t *testing.T, p Plan, tk *Ticket) {
	t.Helper()
	if err := p.Commit(tk); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestRequestValid(t *testing.T) {
	if !req("j", 1, 0, 10, 5).Valid() {
		t.Error("valid request rejected")
	}
	if req("j", 1, 0, 4, 5).Valid() {
		t.Error("window smaller than duration accepted")
	}
	if req("j", 1, 0, 10, 0).Valid() {
		t.Error("zero duration accepted")
	}
	if req("j", 1, math.NaN(), 10, 1).Valid() {
		t.Error("NaN release accepted")
	}
}

func TestNonPreemptiveEmptyPlanAccepts(t *testing.T) {
	p := NewNonPreemptive()
	tk := mustAdmit(t, p, 0, req("a", 1, 0, 10, 4))
	if len(tk.Placements) != 1 {
		t.Fatalf("placements %v", tk.Placements)
	}
	pl := tk.Placements[0]
	if pl.Start != 0 || pl.End != 4 {
		t.Fatalf("placement [%v,%v], want [0,4]", pl.Start, pl.End)
	}
	commit(t, p, tk)
	if got := p.Reservations(); len(got) != 1 {
		t.Fatalf("reservations %v", got)
	}
}

func TestNonPreemptiveRespectsRelease(t *testing.T) {
	p := NewNonPreemptive()
	tk := mustAdmit(t, p, 0, req("a", 1, 7, 20, 4))
	if tk.Placements[0].Start != 7 {
		t.Fatalf("start %v, want release 7", tk.Placements[0].Start)
	}
	// now dominates release
	tk2 := mustAdmit(t, p, 9, req("b", 1, 7, 20, 4))
	if tk2.Placements[0].Start != 9 {
		t.Fatalf("start %v, want now 9", tk2.Placements[0].Start)
	}
}

func TestNonPreemptiveGapInsertion(t *testing.T) {
	p := NewNonPreemptive()
	commit(t, p, mustAdmit(t, p, 0, req("a", 1, 0, 10, 3))) // [0,3]
	commit(t, p, mustAdmit(t, p, 0, req("a", 2, 8, 20, 4))) // [8,12]
	tk := mustAdmit(t, p, 0, req("b", 1, 1, 20, 5))         // must use gap [3,8]
	if tk.Placements[0].Start != 3 || tk.Placements[0].End != 8 {
		t.Fatalf("placement [%v,%v], want [3,8]", tk.Placements[0].Start, tk.Placements[0].End)
	}
	// a 6-unit task no longer fits before its deadline 13
	if _, ok := p.Admit(0, []Request{req("c", 1, 0, 13, 6)}); ok {
		t.Fatal("infeasible request admitted")
	}
	// but fits with deadline 18 (slot [12,18])
	tk2 := mustAdmit(t, p, 0, req("c", 1, 0, 18, 6))
	commit(t, p, tk)
	// tk2 was computed before tk committed; the slot [3,8]+[12,18] overlap check:
	// tk2 wanted [3,9]? No: 6 units in gap [3,8] don't fit, so it got [12,18].
	if tk2.Placements[0].Start != 12 {
		t.Fatalf("placement start %v, want 12", tk2.Placements[0].Start)
	}
	commit(t, p, tk2)
}

func TestNonPreemptiveEDFOrderingWithinBatch(t *testing.T) {
	p := NewNonPreemptive()
	// Two tasks, tight one second in the slice: EDF order must schedule the
	// tighter deadline first or the batch fails.
	tk := mustAdmit(t, p, 0,
		req("a", 1, 0, 20, 6),
		req("a", 2, 0, 7, 6),
	)
	byTask := map[int]Reservation{}
	for _, pl := range tk.Placements {
		byTask[pl.Task] = pl
	}
	if byTask[2].Start != 0 {
		t.Fatalf("tight task starts at %v, want 0", byTask[2].Start)
	}
	if byTask[1].Start != 6 {
		t.Fatalf("loose task starts at %v, want 6", byTask[1].Start)
	}
}

func TestNonPreemptiveStaleTicket(t *testing.T) {
	p := NewNonPreemptive()
	tk1 := mustAdmit(t, p, 0, req("a", 1, 0, 10, 6))
	tk2 := mustAdmit(t, p, 0, req("b", 1, 0, 10, 6))
	commit(t, p, tk1)
	if err := p.Commit(tk2); err != ErrStaleTicket {
		t.Fatalf("stale overlapping commit: err = %v, want ErrStaleTicket", err)
	}
	// A non-conflicting stale ticket is still committable.
	tk3 := mustAdmit(t, p, 0, req("c", 1, 10, 30, 5))
	commit(t, p, mustAdmit(t, p, 0, req("d", 1, 20, 30, 5)))
	if err := p.Commit(tk3); err != nil {
		t.Fatalf("non-conflicting stale ticket rejected: %v", err)
	}
}

func TestAdmitRejectNoAllocs(t *testing.T) {
	p := NewNonPreemptive()
	// Fill [0,10] so a 5-unit request with deadline 10 cannot fit.
	commit(t, p, mustAdmit(t, p, 0, req("a", 1, 0, 10, 10)))
	reqs := []Request{req("b", 1, 0, 10, 5), req("b", 2, 0, 10, 5)}
	// Warm the scratch buffers (first call may grow them).
	if _, ok := p.Admit(0, reqs); ok {
		t.Fatal("infeasible request admitted")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := p.Admit(0, reqs); ok {
			t.Fatal("infeasible request admitted")
		}
	})
	if allocs != 0 {
		t.Fatalf("Admit reject path allocated %v times per call, want 0", allocs)
	}
}

// TestAdmitAcceptAllocatesTheTicket pins the accept path: an admission that
// succeeds (ticket handed out, not committed, so the plan stays as it was)
// allocates exactly the ticket it returns: the ticket, its placements and its
// copy of the requests.
func TestAdmitAcceptAllocatesTheTicket(t *testing.T) {
	p := NewNonPreemptive()
	reqs := []Request{req("b", 1, 0, 100, 5), req("b", 2, 0, 100, 5)}
	mustAdmit(t, p, 0, reqs...) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := p.Admit(0, reqs); !ok {
			t.Fatal("feasible request rejected")
		}
	})
	if allocs != 3 {
		t.Fatalf("Admit accept path allocated %v times per call, want 3 (the ticket)", allocs)
	}
}

func TestAdmitScratchReuseMatchesFresh(t *testing.T) {
	// Repeated Admit calls on one plan (scratch reused) must produce the
	// same placements as calls on freshly constructed plans.
	rng := rand.New(rand.NewSource(7))
	warm := NewNonPreemptive()
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(6)
		reqs := make([]Request, n)
		for i := range reqs {
			rel := float64(rng.Intn(40))
			dur := 1 + float64(rng.Intn(5))
			reqs[i] = req(fmt.Sprintf("j%d", round), i+1, rel, rel+dur+float64(rng.Intn(20)), dur)
		}
		fresh := NewNonPreemptive()
		for _, r := range warm.Reservations() {
			fresh.res = append(fresh.res, r)
		}
		wTk, wOK := warm.Admit(0, reqs)
		fTk, fOK := fresh.Admit(0, reqs)
		if wOK != fOK {
			t.Fatalf("round %d: warm ok=%v fresh ok=%v", round, wOK, fOK)
		}
		if !wOK {
			continue
		}
		for i := range wTk.Placements {
			if wTk.Placements[i] != fTk.Placements[i] {
				t.Fatalf("round %d placement %d: warm %+v fresh %+v", round, i, wTk.Placements[i], fTk.Placements[i])
			}
		}
		commit(t, warm, wTk)
	}
}

func TestTicketOwnership(t *testing.T) {
	p1 := NewNonPreemptive()
	p2 := NewNonPreemptive()
	tk := mustAdmit(t, p1, 0, req("a", 1, 0, 10, 2))
	if err := p2.Commit(tk); err == nil {
		t.Fatal("foreign ticket accepted")
	}
	if err := p1.Commit(nil); err == nil {
		t.Fatal("nil ticket accepted")
	}
}

func TestCancelJob(t *testing.T) {
	p := NewNonPreemptive()
	commit(t, p, mustAdmit(t, p, 0, req("a", 1, 0, 10, 2), req("a", 2, 0, 10, 2)))
	commit(t, p, mustAdmit(t, p, 0, req("b", 1, 0, 20, 2)))
	if n := p.CancelJob("a"); n != 2 {
		t.Fatalf("cancelled %d, want 2", n)
	}
	if n := p.CancelJob("a"); n != 0 {
		t.Fatalf("second cancel removed %d", n)
	}
	if got := p.Reservations(); len(got) != 1 || got[0].Job != "b" {
		t.Fatalf("reservations after cancel: %v", got)
	}
}

func TestSurplus(t *testing.T) {
	p := NewNonPreemptive()
	if s := p.Surplus(0, 100); s != 1 {
		t.Fatalf("empty plan surplus %v, want 1", s)
	}
	commit(t, p, mustAdmit(t, p, 0, req("a", 1, 0, 100, 25)))
	if s := p.Surplus(0, 100); s != 0.75 {
		t.Fatalf("surplus %v, want 0.75", s)
	}
	// Window that excludes the reservation.
	if s := p.Surplus(50, 50); s != 1 {
		t.Fatalf("surplus %v, want 1", s)
	}
	// Partial overlap: reservation [0,25], window [10,60] → busy 15/50.
	if s := p.Surplus(10, 50); math.Abs(s-0.7) > 1e-12 {
		t.Fatalf("surplus %v, want 0.7", s)
	}
	if s := p.Surplus(0, 0); s != 0 {
		t.Fatalf("zero window surplus %v, want 0", s)
	}
}

func TestIdleIntervals(t *testing.T) {
	p := NewNonPreemptive()
	commit(t, p, mustAdmit(t, p, 0, req("a", 1, 2, 100, 3)))  // [2,5]
	commit(t, p, mustAdmit(t, p, 0, req("a", 2, 10, 100, 5))) // [10,15]
	gaps := p.IdleIntervals(0, 20)
	want := [][2]float64{{0, 2}, {5, 10}, {15, 20}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps %v, want %v", gaps, want)
	}
	for i, g := range gaps {
		if g.Start != want[i][0] || g.End != want[i][1] {
			t.Fatalf("gap %d = [%v,%v], want %v", i, g.Start, g.End, want[i])
		}
	}
}

func TestPreemptiveBeatsNonPreemptive(t *testing.T) {
	// Classic case: long task plus a tight short task released mid-way.
	// Non-preemptive earliest-fit cannot accept both; preemptive EDF can.
	long := req("a", 1, 0, 20, 10)
	short := req("b", 1, 4, 7, 2)

	np := NewNonPreemptive()
	commit(t, np, mustAdmit(t, np, 0, long))
	if _, ok := np.Admit(0, []Request{short}); ok {
		t.Fatal("non-preemptive plan accepted a task requiring preemption")
	}

	pp := NewPreemptive()
	tk := mustAdmit(t, pp, 0, long)
	commit(t, pp, tk)
	tk2, ok := pp.Admit(0, []Request{short})
	if !ok {
		t.Fatal("preemptive plan rejected a feasible set")
	}
	commit(t, pp, tk2)
	// The fragments must complete both tasks by their deadlines.
	frags := pp.Reservations()
	var endA, endB float64
	var workA, workB float64
	for _, f := range frags {
		if f.Job == "a" {
			workA += f.End - f.Start
			endA = math.Max(endA, f.End)
		} else {
			workB += f.End - f.Start
			endB = math.Max(endB, f.End)
		}
	}
	if math.Abs(workA-10) > 1e-9 || math.Abs(workB-2) > 1e-9 {
		t.Fatalf("work A=%v B=%v, want 10 and 2", workA, workB)
	}
	if endA > 20+1e-9 || endB > 7+1e-9 {
		t.Fatalf("completions A=%v B=%v exceed deadlines", endA, endB)
	}
}

func TestPreemptiveRejectsOverload(t *testing.T) {
	pp := NewPreemptive()
	commit(t, pp, mustAdmit(t, pp, 0, req("a", 1, 0, 10, 6)))
	if _, ok := pp.Admit(0, []Request{req("b", 1, 0, 10, 6)}); ok {
		t.Fatal("12 units of work in a 10-unit window accepted")
	}
}

func TestPreemptiveSurplus(t *testing.T) {
	pp := NewPreemptive()
	commit(t, pp, mustAdmit(t, pp, 0, req("a", 1, 0, 100, 30)))
	if s := pp.Surplus(0, 100); math.Abs(s-0.7) > 1e-9 {
		t.Fatalf("surplus %v, want 0.7", s)
	}
}

// Property: admitted placements never overlap each other or existing
// reservations, and always lie within [max(now, release), deadline].
func TestPropertyNonPreemptivePlacementsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewNonPreemptive()
		now := 0.0
		for round := 0; round < 20; round++ {
			var reqs []Request
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				rel := now + rng.Float64()*20
				dur := 0.5 + rng.Float64()*5
				dl := rel + dur + rng.Float64()*15
				reqs = append(reqs, req("j", round*10+i, rel, dl, dur))
			}
			tk, ok := p.Admit(now, reqs)
			if !ok {
				continue
			}
			for i, pl := range tk.Placements {
				r := tk.Requests[i]
				if pl.Start < math.Max(now, r.Release)-1e-9 {
					return false
				}
				if pl.End > r.Deadline+1e-9 {
					return false
				}
				if math.Abs((pl.End-pl.Start)-r.Duration) > 1e-9 {
					return false
				}
			}
			if err := p.Commit(tk); err != nil {
				return false
			}
			// Invariant: committed reservations pairwise disjoint & sorted.
			res := p.Reservations()
			for i := 1; i < len(res); i++ {
				if res[i].Start < res[i-1].End-1e-9 {
					return false
				}
			}
			now += rng.Float64() * 5
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: whatever the non-preemptive plan accepts, the preemptive plan
// also accepts (preemptive EDF dominates any non-preemptive schedule).
func TestPropertyPreemptiveDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var reqs []Request
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			rel := rng.Float64() * 30
			dur := 0.5 + rng.Float64()*6
			dl := rel + dur + rng.Float64()*20
			reqs = append(reqs, req("j", i, rel, dl, dur))
		}
		np := NewNonPreemptive()
		pp := NewPreemptive()
		if _, ok := np.Admit(0, reqs); ok {
			if _, ok2 := pp.Admit(0, reqs); !ok2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: preemptive EDF fragments execute each admitted task for exactly
// its duration, within its window, one task at a time.
func TestPropertyPreemptiveFragmentsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pp := NewPreemptive()
		accepted := map[int]Request{}
		for i := 0; i < 10; i++ {
			rel := rng.Float64() * 40
			dur := 0.5 + rng.Float64()*5
			dl := rel + dur*(1+rng.Float64()*3)
			r := req("j", i, rel, dl, dur)
			if tk, ok := pp.Admit(0, []Request{r}); ok {
				if pp.Commit(tk) != nil {
					return false
				}
				accepted[i] = r
			}
		}
		frags := pp.Reservations()
		work := map[int]float64{}
		for i := 1; i < len(frags); i++ {
			if frags[i].Start < frags[i-1].End-1e-9 {
				return false // overlapping execution
			}
		}
		for _, f := range frags {
			r := accepted[f.Task]
			if f.Start < r.Release-1e-9 || f.End > r.Deadline+1e-9 {
				return false
			}
			work[f.Task] += f.End - f.Start
		}
		for id, r := range accepted {
			if math.Abs(work[id]-r.Duration) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Reference implementation: the original linear-scan plan, kept verbatim in
// the tests as the oracle the indexed plan must agree with.

type referencePlan struct {
	res     []Reservation
	version uint64
}

func refEarliestFit(occupied []Reservation, from, deadline, dur float64) (float64, bool) {
	start := from
	for _, res := range occupied {
		if res.End <= start+timeEps {
			continue
		}
		if res.Start >= start+dur-timeEps {
			break
		}
		start = res.End
	}
	if start+dur <= deadline+timeEps {
		return start, true
	}
	return 0, false
}

func (p *referencePlan) admit(now float64, reqs []Request) ([]Reservation, uint64, bool) {
	for _, r := range reqs {
		if !r.Valid() {
			return nil, 0, false
		}
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		if ra.Deadline != rb.Deadline {
			return ra.Deadline < rb.Deadline
		}
		if ra.Release != rb.Release {
			return ra.Release < rb.Release
		}
		return ra.Task < rb.Task
	})
	occupied := append([]Reservation(nil), p.res...)
	placements := make([]Reservation, len(reqs))
	for _, idx := range order {
		r := reqs[idx]
		start, ok := refEarliestFit(occupied, math.Max(now, r.Release), r.Deadline, r.Duration)
		if !ok {
			return nil, 0, false
		}
		pl := Reservation{Job: r.Job, Task: r.Task, Start: start, End: start + r.Duration}
		occupied = insertSorted(occupied, pl)
		placements[idx] = pl
	}
	return placements, p.version, true
}

func (p *referencePlan) commit(placements []Reservation, version uint64) error {
	if version != p.version {
		for _, pl := range placements {
			for _, res := range p.res {
				if pl.Start < res.End-timeEps && res.Start < pl.End-timeEps {
					return ErrStaleTicket
				}
			}
		}
	}
	for _, pl := range placements {
		p.res = insertSorted(p.res, pl)
	}
	p.version++
	return nil
}

func (p *referencePlan) cancelJob(job string) int {
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

func (p *referencePlan) surplus(now, window float64) float64 {
	if window <= 0 {
		return 0
	}
	end := now + window
	busy := 0.0
	for _, r := range p.res {
		lo := math.Max(r.Start, now)
		hi := math.Min(r.End, end)
		if hi > lo {
			busy += hi - lo
		}
	}
	s := (window - busy) / window
	if s < 0 {
		return 0
	}
	return s
}

func sameReservations(a, b []Reservation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyIndexedPlanMatchesReference drives the indexed plan and the
// original linear implementation with identical randomized streams of
// Admit / Commit (including deliberately stale tickets) / CancelJob /
// Surplus operations and requires bit-identical agreement at every step.
func TestPropertyIndexedPlanMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewNonPreemptive()
		ref := &referencePlan{}
		now := 0.0
		var pendingTk *Ticket // a ticket held back to go stale
		var pendingRef []Reservation
		var pendingVer uint64
		var pendingOK bool
		for round := 0; round < 40; round++ {
			switch rng.Intn(5) {
			case 0, 1: // admit + commit a batch
				n := 1 + rng.Intn(4)
				reqs := make([]Request, 0, n)
				for i := 0; i < n; i++ {
					rel := now + rng.Float64()*25
					dur := 0.5 + rng.Float64()*5
					dl := rel + dur + rng.Float64()*15
					reqs = append(reqs, req(fmt.Sprintf("j%d", round%7), round*10+i, rel, dl, dur))
				}
				tk, ok := p.Admit(now, reqs)
				rpl, rver, rok := ref.admit(now, reqs)
				if ok != rok {
					t.Errorf("seed %d round %d: admit ok %v vs ref %v", seed, round, ok, rok)
					return false
				}
				if !ok {
					continue
				}
				if !sameReservations(tk.Placements, rpl) {
					t.Errorf("seed %d round %d: placements %v vs ref %v", seed, round, tk.Placements, rpl)
					return false
				}
				if err, rerr := p.Commit(tk), ref.commit(rpl, rver); (err == nil) != (rerr == nil) {
					t.Errorf("seed %d round %d: commit %v vs ref %v", seed, round, err, rerr)
					return false
				}
			case 2: // stash a ticket so later mutations make it stale
				rel := now + rng.Float64()*25
				dur := 0.5 + rng.Float64()*5
				reqs := []Request{req("stale", round, rel, rel+dur+rng.Float64()*15, dur)}
				tk, ok := p.Admit(now, reqs)
				rpl, rver, rok := ref.admit(now, reqs)
				if ok != rok {
					t.Errorf("seed %d round %d: stash admit ok %v vs ref %v", seed, round, ok, rok)
					return false
				}
				if ok {
					pendingTk, pendingRef, pendingVer, pendingOK = tk, rpl, rver, true
				}
			case 3: // cancel a random job
				job := fmt.Sprintf("j%d", rng.Intn(7))
				if n, rn := p.CancelJob(job), ref.cancelJob(job); n != rn {
					t.Errorf("seed %d round %d: cancel %d vs ref %d", seed, round, n, rn)
					return false
				}
			case 4: // commit the stale ticket, if any
				if pendingOK {
					err := p.Commit(pendingTk)
					rerr := ref.commit(pendingRef, pendingVer)
					if (err == nil) != (rerr == nil) || (err != nil && err != rerr) {
						t.Errorf("seed %d round %d: stale commit %v vs ref %v", seed, round, err, rerr)
						return false
					}
					pendingOK = false
				}
			}
			if !sameReservations(p.Reservations(), append([]Reservation(nil), ref.res...)) {
				t.Errorf("seed %d round %d: reservations diverged\n%v\n%v", seed, round, p.Reservations(), ref.res)
				return false
			}
			w := rng.Float64() * 60
			if s, rs := p.Surplus(now, w), ref.surplus(now, w); s != rs {
				t.Errorf("seed %d round %d: surplus(%v,%v) %v vs ref %v", seed, round, now, w, s, rs)
				return false
			}
			now += rng.Float64() * 4
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySessionMatchesReference checks the overlay-backed placement
// session against sequential reference earliest-fit over a copied set.
func TestPropertySessionMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewNonPreemptive()
		ref := &referencePlan{}
		// Preload some committed work.
		for i := 0; i < 30; i++ {
			rel := rng.Float64() * 200
			dur := 0.5 + rng.Float64()*4
			reqs := []Request{req("bg", i, rel, rel+dur+rng.Float64()*30, dur)}
			tk, ok := p.Admit(0, reqs)
			rpl, rver, rok := ref.admit(0, reqs)
			if ok != rok {
				return false
			}
			if ok {
				if p.Commit(tk) != nil || ref.commit(rpl, rver) != nil {
					return false
				}
			}
		}
		now := rng.Float64() * 50
		sess := p.NewSession(now)
		occupied := append([]Reservation(nil), ref.res...)
		for i := 0; i < 12; i++ {
			rel := now + rng.Float64()*40
			dur := 0.5 + rng.Float64()*4
			r := req("s", i, rel, rel+dur+rng.Float64()*20, dur)
			pl, ok := sess.Place(r)
			start, rok := refEarliestFit(occupied, math.Max(now, r.Release), r.Deadline, r.Duration)
			if ok != rok {
				t.Errorf("seed %d place %d: ok %v vs ref %v", seed, i, ok, rok)
				return false
			}
			if !ok {
				continue
			}
			rpl := Reservation{Job: r.Job, Task: r.Task, Start: start, End: start + r.Duration}
			if pl != rpl {
				t.Errorf("seed %d place %d: %v vs ref %v", seed, i, pl, rpl)
				return false
			}
			occupied = insertSorted(occupied, rpl)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// preload fills a plan with n committed back-to-back-ish reservations spread
// over a long horizon, the shape a loaded site's plan converges to.
func preload(b *testing.B, p Plan, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		rel := rng.Float64() * float64(n) * 5
		r := req("w", i, rel, rel+50, 1+rng.Float64()*3)
		if tk, ok := p.Admit(0, []Request{r}); ok {
			if err := p.Commit(tk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlanAdmit measures one admission probe against a plan holding 1k
// committed reservations — the per-request hot path of a loaded site.
func BenchmarkPlanAdmit(b *testing.B) {
	p := NewNonPreemptive()
	preload(b, p, 1000)
	horizon := 5000.0
	probe := []Request{req("p", 0, 0, 0, 5)}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := rng.Float64() * horizon
		probe[0].Release = rel
		probe[0].Deadline = rel + 300
		p.Admit(0, probe)
	}
}

// BenchmarkPlanAdmitReference is the same probe against the original
// linear-scan implementation, for the speedup comparison.
func BenchmarkPlanAdmitReference(b *testing.B) {
	p := NewNonPreemptive()
	preload(b, p, 1000)
	ref := &referencePlan{res: append([]Reservation(nil), p.res...)}
	horizon := 5000.0
	probe := []Request{req("p", 0, 0, 0, 5)}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := rng.Float64() * horizon
		probe[0].Release = rel
		probe[0].Deadline = rel + 300
		ref.admit(0, probe)
	}
}

// BenchmarkPlanAdmitCommit measures the full admit+commit+cancel cycle at 1k
// reservations, exercising the batched merge in Commit.
func BenchmarkPlanAdmitCommit(b *testing.B) {
	p := NewNonPreemptive()
	preload(b, p, 1000)
	horizon := 5000.0
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := rng.Float64() * horizon
		if tk, ok := p.Admit(0, []Request{req("p", 0, rel, rel+300, 5)}); ok {
			if err := p.Commit(tk); err != nil {
				b.Fatal(err)
			}
			p.CancelJob("p")
		}
	}
}

func BenchmarkNonPreemptiveAdmit(b *testing.B) {
	p := NewNonPreemptive()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rel := rng.Float64() * 1000
		r := req("w", i, rel, rel+50, 1+rng.Float64()*3)
		if tk, ok := p.Admit(0, []Request{r}); ok {
			_ = p.Commit(tk)
		}
	}
	probe := []Request{req("p", 0, 100, 400, 5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Admit(0, probe)
	}
}

func BenchmarkPreemptiveAdmit(b *testing.B) {
	p := NewPreemptive()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rel := rng.Float64() * 1000
		r := req("w", i, rel, rel+50, 1+rng.Float64()*3)
		if tk, ok := p.Admit(0, []Request{r}); ok {
			_ = p.Commit(tk)
		}
	}
	probe := []Request{req("p", 0, 100, 400, 5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Admit(0, probe)
	}
}

// TestPreemptiveHistoryDoesNotBlockFuture is a regression test: admitted
// work whose deadlines lie in the past must count as executed history, not
// as impossible obligations that poison later admissions (this bug made the
// preemptive scheduler reject almost everything in long runs).
func TestPreemptiveHistoryDoesNotBlockFuture(t *testing.T) {
	pp := NewPreemptive()
	commit(t, pp, mustAdmit(t, pp, 0, req("old", 1, 0, 10, 6)))
	// Far in the future, well past old's deadline, a new task must fit.
	tk, ok := pp.Admit(100, []Request{req("new", 1, 100, 120, 10)})
	if !ok {
		t.Fatal("history with expired deadlines blocked a future admission")
	}
	commit(t, pp, tk)
	// Surplus in the future window must reflect only the new work.
	if s := pp.Surplus(100, 100); math.Abs(s-0.9) > 1e-9 {
		t.Fatalf("future surplus %v, want 0.9", s)
	}
}

// TestPreemptiveResidualPartialExecution: admission midway through a task's
// execution sees only the remaining work.
func TestPreemptiveResidualPartialExecution(t *testing.T) {
	pp := NewPreemptive()
	commit(t, pp, mustAdmit(t, pp, 0, req("long", 1, 0, 100, 50)))
	// At t=30, 30 units have run; 20 remain. A 60-unit task with deadline
	// 120 needs 20+60 = 80 ≤ 90 remaining window: feasible.
	if _, ok := pp.Admit(30, []Request{req("big", 1, 30, 120, 60)}); !ok {
		t.Fatal("feasible admission rejected midway through execution")
	}
	// An 80-unit task with deadline 120 needs 20+80 = 100 > 90: infeasible.
	if _, ok := pp.Admit(30, []Request{req("huge", 1, 30, 120, 80)}); ok {
		t.Fatal("infeasible admission accepted (residual miscomputed)")
	}
}

// TestPreemptiveSessionUsesResidual mirrors the history regression for the
// incremental session path used by the local whole-DAG test.
func TestPreemptiveSessionUsesResidual(t *testing.T) {
	pp := NewPreemptive()
	commit(t, pp, mustAdmit(t, pp, 0, req("old", 1, 0, 10, 6)))
	sess := pp.NewSession(100)
	if _, ok := sess.Place(req("new", 1, 100, 130, 10)); !ok {
		t.Fatal("session blocked by expired history")
	}
	if c, ok := sess.Completion(1); !ok || c != 110 {
		t.Fatalf("completion %v/%v, want 110", c, ok)
	}
	if err := pp.Commit(sess.Ticket()); err != nil {
		t.Fatal(err)
	}
}
