package txn

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

func members(ids ...int) []graph.NodeID {
	out := make([]graph.NodeID, len(ids))
	for i, id := range ids {
		out[i] = graph.NodeID(id)
	}
	return out
}

// timer returns a cancel handle that counts its calls in *n.
func timer(n *int) func() bool { return func() bool { *n++; return true } }

// TestPhaseProgression walks one transaction through its three waits:
// each completes on its last member's answer, exactly once, and the
// answers are held at their members' positions.
func TestPhaseProgression(t *testing.T) {
	var tx Txn
	tx.Enroll.Open(members(1, 2), nil)
	if counted, complete := tx.Enroll.Answer(1, Enrollment{Surplus: 0.5}); !counted || complete {
		t.Fatalf("enrollment 1/2: counted=%v complete=%v", counted, complete)
	}
	if counted, complete := tx.Enroll.Answer(2, Enrollment{Surplus: 0.7}); !counted || !complete {
		t.Fatalf("enrollment 2/2: counted=%v complete=%v", counted, complete)
	}
	if e, ok := tx.Enroll.Got(1); !ok || e.Surplus != 0.7 {
		t.Fatalf("enrollment of member 2: %v %v", e, ok)
	}
	if tx.Enroll.Expire() != nil {
		t.Fatal("a completed enrollment closed again by its timer (double transition)")
	}

	tx.Validate.Open(members(1, 2), nil)
	if _, complete := tx.Validate.Answer(1, []int{1}); complete {
		t.Fatal("validation complete after 1/2 endorsements")
	}
	if _, complete := tx.Validate.Answer(2, []int{0, 1}); !complete {
		t.Fatal("validation not complete after 2/2 endorsements")
	}
	if procs, _ := tx.Validate.Got(1); !slices.Equal(procs, []int{0, 1}) {
		t.Fatalf("endorsement of member 2: %v", procs)
	}

	tx.Commit.Open(members(1, 2), nil)
	tx.Commit.Answer(1, true)
	if _, complete := tx.Commit.Answer(2, false); !complete {
		t.Fatal("commit not complete after 2/2 answers")
	}
	if !tx.CommitFailed() {
		t.Fatal("a refused commit did not fail the transaction")
	}
	tx.Commit.Open(members(1, 2), nil)
	tx.Commit.Answer(1, true)
	tx.Commit.Answer(2, true)
	if tx.CommitFailed() {
		t.Fatal("a fully confirmed commit failed")
	}
}

// TestMissingEnrollmentsInExpectedOrder: expiry lists the members that
// never answered in send order, which need not be ID order.
func TestMissingEnrollmentsInExpectedOrder(t *testing.T) {
	var w Wait[Enrollment]
	w.Open(members(5, 3, 8, 1), nil)
	w.Answer(3, Enrollment{})
	if got, want := w.Expire(), members(5, 8, 1); !slices.Equal(got, want) {
		t.Fatalf("missing %v, want %v (send order)", got, want)
	}
}

// TestTimerLifecycle: the last answer cancels the wait's timer exactly
// once; an expiry drops the spent handle without cancelling it.
func TestTimerLifecycle(t *testing.T) {
	cancelled := 0
	var w Wait[bool]
	w.Open(members(1, 2), timer(&cancelled))
	w.Answer(1, true)
	if cancelled != 0 {
		t.Fatal("timer cancelled before the last answer")
	}
	w.Answer(2, true)
	w.Answer(2, true)
	w.Expire()
	if cancelled != 1 {
		t.Fatalf("timer cancelled %d times, want 1", cancelled)
	}
	w.Open(members(1), timer(&cancelled))
	w.Expire()
	w.Answer(1, true)
	if cancelled != 1 {
		t.Fatalf("an expired wait cancelled its spent timer (%d cancels)", cancelled)
	}
}

// TestValidationTimeoutRace: the timer closes validation with one member
// silent; the silent member's endorsement reads empty, a second expiry is
// a no-op and the straggler's answer does not count.
func TestValidationTimeoutRace(t *testing.T) {
	var w Wait[[]int]
	w.Open(members(1, 2), nil)
	w.Answer(1, []int{0})
	if missing := w.Expire(); !slices.Equal(missing, members(2)) {
		t.Fatalf("missing %v, want [2]", missing)
	}
	if procs, ok := w.Got(1); ok || procs != nil {
		t.Fatalf("silent member's endorsement %v (answered %v), want nil", procs, ok)
	}
	if w.Expire() != nil {
		t.Fatal("second expiry fired")
	}
	if counted, _ := w.Answer(2, []int{1}); counted {
		t.Fatal("straggler endorsement counted after the timeout")
	}
}

// TestCommitTimeoutMarksFailure: a commit wait closed by its timer fails
// the transaction even though every answer that arrived confirmed.
func TestCommitTimeoutMarksFailure(t *testing.T) {
	var tx Txn
	tx.Commit.Open(members(1, 2), nil)
	tx.Commit.Answer(1, true)
	if missing := tx.Commit.Expire(); !slices.Equal(missing, members(2)) {
		t.Fatalf("missing %v, want [2]", missing)
	}
	if !tx.CommitFailed() {
		t.Fatal("a commit closed by its timer did not fail")
	}
	if counted, _ := tx.Commit.Answer(2, true); counted {
		t.Fatal("stale commit ack counted after the timeout")
	}
	if tx.Commit.Expire() != nil {
		t.Fatal("second commit timeout fired")
	}
}

// TestAbortRetry: the retry budget, and a retransmission round as a wait
// on the members still silent.
func TestAbortRetry(t *testing.T) {
	var ar AbortRetry
	for i := 1; i <= MaxAbortTries; i++ {
		if !ar.NextTry() {
			t.Fatalf("try %d refused within budget", i)
		}
	}
	if ar.NextTry() {
		t.Fatalf("try %d accepted beyond MaxAbortTries", MaxAbortTries+1)
	}

	cancelled := 0
	ar = AbortRetry{}
	ar.Open(members(2, 4, 6), timer(&cancelled))
	ar.Answer(4, struct{}{})
	missing := ar.Expire()
	if !slices.Equal(missing, members(2, 6)) {
		t.Fatalf("round 1 missing %v, want [2 6]", missing)
	}
	ar.Open(missing, timer(&cancelled))
	if _, complete := ar.Answer(6, struct{}{}); complete {
		t.Fatal("round 2 complete after 1/2 acks")
	}
	if _, complete := ar.Answer(2, struct{}{}); !complete {
		t.Fatal("round 2 not complete after every ack")
	}
	if cancelled != 1 {
		t.Fatalf("retry timer cancelled %d times, want 1", cancelled)
	}
}

// The four rules every wait keeps.

func TestWaitCountsADuplicateAnswerOnce(t *testing.T) {
	var w Wait[int]
	w.Open(members(1, 2), nil)
	if counted, _ := w.Answer(1, 10); !counted {
		t.Fatal("first answer not counted")
	}
	if counted, complete := w.Answer(1, 11); counted || complete {
		t.Fatalf("duplicate answer: counted=%v complete=%v", counted, complete)
	}
	if v, _ := w.Got(0); v != 10 {
		t.Fatalf("duplicate overwrote the answer: %d", v)
	}
	if missing := w.Expire(); !slices.Equal(missing, members(2)) {
		t.Fatalf("missing %v, want [2]: the duplicate stood in for member 2", missing)
	}
}

func TestWaitRefusesAnAnswerFromOutside(t *testing.T) {
	var w Wait[int]
	w.Open(members(1), nil)
	if counted, complete := w.Answer(7, 1); counted || complete {
		t.Fatalf("stranger's answer: counted=%v complete=%v", counted, complete)
	}
	if _, complete := w.Answer(1, 1); !complete {
		t.Fatal("the member's own answer did not complete the wait")
	}
}

func TestWaitIgnoresAnAnswerAfterExpiry(t *testing.T) {
	cancelled := 0
	var w Wait[int]
	w.Open(members(1, 2), timer(&cancelled))
	w.Answer(1, 1)
	w.Expire()
	if counted, complete := w.Answer(2, 2); counted || complete {
		t.Fatalf("late answer: counted=%v complete=%v", counted, complete)
	}
	if _, ok := w.Got(1); ok {
		t.Fatal("late answer was stored")
	}
	if cancelled != 0 {
		t.Fatal("late answer cancelled the spent timer")
	}
}

func TestWaitListsMissingInSendOrder(t *testing.T) {
	var w Wait[int]
	w.Open(members(9, 2, 7, 4, 1), nil)
	w.Answer(7, 0)
	w.Answer(1, 0)
	if got, want := w.Expire(), members(9, 2, 4); !slices.Equal(got, want) {
		t.Fatalf("missing %v, want %v", got, want)
	}
	var none Wait[int]
	none.Open(nil, nil)
	if got := none.Expire(); got == nil || len(got) != 0 {
		t.Fatalf("a wait on no member expired with %v, want an empty list", got)
	}
}
