package schedule

import "math"

// PlacementSession places requests one at a time against a tentative overlay
// of a plan, so callers can thread precedence through placements: the local
// whole-DAG guarantee test (paper §5) places tasks in topological order,
// deriving each task's release from its predecessors' completions.
type PlacementSession interface {
	// Place tentatively schedules one request. The returned reservation's
	// End is an upper bound on the task's completion usable as a successor's
	// release.
	Place(r Request) (Reservation, bool)
	// Completion returns the current completion bound of a previously placed
	// task (it can move later in preemptive plans as more work is placed).
	Completion(task int) (float64, bool)
	// Ticket freezes the session into a committable ticket.
	Ticket() *Ticket
}

// NewSession starts a placement session against the non-preemptive plan.
// The session reads the plan's committed set directly and keeps only its own
// tentative placements in a sorted overlay; the RTDS locking discipline
// guarantees the plan does not change while a session is open (the version
// captured here lets Commit verify that anyway).
func (p *NonPreemptivePlan) NewSession(now float64) PlacementSession {
	return &npSession{
		p:       p,
		now:     now,
		version: p.version,
	}
}

type npSession struct {
	p          *NonPreemptivePlan
	now        float64
	overlay    []Reservation // tentative placements, sorted by Start
	placements []Reservation
	requests   []Request
	version    uint64
}

func (s *npSession) Place(r Request) (Reservation, bool) {
	if !r.Valid() {
		return Reservation{}, false
	}
	start, ok := earliestFitOverlay(s.p.res, s.overlay, math.Max(s.now, r.Release), r.Deadline, r.Duration)
	if !ok {
		return Reservation{}, false
	}
	pl := Reservation{Job: r.Job, Task: r.Task, Start: start, End: start + r.Duration}
	s.overlay = insertSorted(s.overlay, pl)
	s.placements = append(s.placements, pl)
	s.requests = append(s.requests, r)
	return pl, true
}

func (s *npSession) Completion(task int) (float64, bool) {
	for _, pl := range s.placements {
		if pl.Task == task {
			return pl.End, true
		}
	}
	return 0, false
}

func (s *npSession) Ticket() *Ticket {
	return &Ticket{
		Placements: append([]Reservation(nil), s.placements...),
		Requests:   append([]Request(nil), s.requests...),
		now:        s.now,
		version:    s.version,
		owner:      s.p,
	}
}

// NewSession starts a placement session against the preemptive plan. Its
// requests number their tasks from 1, as a DAG's tasks are.
func (p *PreemptivePlan) NewSession(now float64) PlacementSession {
	return &ppSession{p: p, now: now, resid: p.residualAt(now)}
}

type ppSession struct {
	p        *PreemptivePlan
	now      float64
	resid    []Request // residual admitted work at session start
	requests []Request
	// completions[task-1] is the completion bound of the session job's
	// task (tasks are numbered from 1, as in a DAG), -Inf while it is not
	// placed. It is refreshed on every Place from a full EDF simulation.
	completions []float64
}

func (s *ppSession) Place(r Request) (Reservation, bool) {
	if !r.Valid() {
		return Reservation{}, false
	}
	all := make([]Request, 0, len(s.resid)+len(s.requests)+1)
	all = append(all, s.resid...)
	all = append(all, s.requests...)
	all = append(all, r)
	frags, ok := edfSimulate(s.now, all)
	if !ok {
		return Reservation{}, false
	}
	s.requests = append(s.requests, r)
	s.completions = s.completions[:0]
	var first, last float64 = math.Inf(1), 0
	for _, f := range frags {
		if f.Job == r.Job {
			for len(s.completions) < f.Task {
				s.completions = append(s.completions, math.Inf(-1))
			}
			if f.End > s.completions[f.Task-1] {
				s.completions[f.Task-1] = f.End
			}
			if f.Task == r.Task {
				first = math.Min(first, f.Start)
				last = math.Max(last, f.End)
			}
		}
	}
	return Reservation{Job: r.Job, Task: r.Task, Start: first, End: last}, true
}

func (s *ppSession) Completion(task int) (float64, bool) {
	if task < 1 || task > len(s.completions) {
		return 0, false
	}
	c := s.completions[task-1]
	return c, !math.IsInf(c, -1)
}

func (s *ppSession) Ticket() *Ticket {
	return &Ticket{
		Requests: append([]Request(nil), s.requests...),
		now:      s.now,
		version:  s.p.version,
		owner:    s.p,
	}
}
