package core

import (
	"sync"
	"testing"
	"time"
)

// TestLiveClusterCloseIdempotent exercises the shutdown ordering the node
// binary depends on: Close must be safe to call repeatedly and from several
// goroutines at once, must let in-flight protocol traffic drain instead of
// panicking mid-cascade, and must leave the process able to build and run a
// fresh cluster afterwards. Run under -race in CI.
func TestLiveClusterCloseIdempotent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 30
	lc, err := NewLiveCluster(fastLine(4), cfg, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// Submit jobs and close immediately: the transactions are mid-flight
	// when teardown starts, which is exactly the reuse hazard.
	for i := 0; i < 3; i++ {
		if _, err := lc.Submit(0, 0, parJob(t, 3, 5), 1000); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc.Close()
		}()
	}
	wg.Wait()
	lc.Close() // and once more after everything returned

	// Probes of a closed cluster answer "no" within probeTimeout instead of
	// waiting forever for a callback the transport dropped.
	defer func(d time.Duration) { probeTimeout = d }(probeTimeout)
	probeTimeout = 50 * time.Millisecond
	if lc.AllIdle() {
		t.Error("AllIdle reports idle on a closed cluster")
	}
	if held := lc.ReservationJobIDs(); len(held) != 0 {
		t.Errorf("ReservationJobIDs on a closed cluster = %v, want empty", held)
	}

	// The process must remain healthy: a fresh cluster on the same topology
	// bootstraps and decides jobs after the old one was torn down.
	lc2, err := NewLiveCluster(fastLine(4), cfg, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer lc2.Close()
	job, err := lc2.Submit(0, 1, chainJob(t, 2, 1), 500)
	if err != nil {
		t.Fatal(err)
	}
	if !lc2.Wait(30 * time.Second) {
		t.Fatal("fresh cluster did not quiesce")
	}
	if job.Outcome == Pending {
		t.Fatal("fresh cluster left the job undecided")
	}
	if v := lc2.Violations(); len(v) != 0 {
		t.Fatalf("violations on fresh cluster: %v", v)
	}
}
