package simnet

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func acquireClock(t *testing.T) *Clock {
	t.Helper()
	c, err := AcquireClock()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Release)
	return c
}

// inboxBatcher is a Batcher that pushes a record of each frame onto an
// inbox, so the inbox shows the order in which the dispatcher handed out
// functions and frames alike.
type inboxBatcher struct {
	inbox *FIFO[func()]
	log   *[]string
}

func (b inboxBatcher) Add(frame []byte) bool {
	b.inbox.Push(func() { *b.log = append(*b.log, string(frame)) })
	return true
}

func (b inboxBatcher) Flush() {}

// Entries due at exactly the same instant — timers and batched frames mixed —
// are handed out in the order they were queued, every round.
func TestClockSameInstantInQueueOrder(t *testing.T) {
	c := acquireClock(t)
	inbox := NewFIFO[func()]()
	var log []string
	b := inboxBatcher{inbox: inbox, log: &log}
	record := func(s string) func() { return func() { log = append(log, s) } }
	const entries = 6
	for round := 0; round < 1000; round++ {
		log = log[:0]
		var want []string
		c.mu.Lock()
		now := float64(time.Since(c.epoch))
		at := now + float64(100*time.Microsecond)
		for i := 0; i < entries; i++ {
			name := fmt.Sprint(i)
			want = append(want, name)
			if i%2 == 0 {
				c.addAt(now, at, &event{inbox: inbox, fn: record(name)})
			} else {
				c.addAt(now, at, &event{batch: b, frame: []byte(name)})
			}
		}
		c.mu.Unlock()
		for range want {
			fn, _ := inbox.Pop()
			fn()
		}
		if !slices.Equal(log, want) {
			t.Fatalf("round %d: handed out %v, queued %v", round, log, want)
		}
	}
}

// A timer is cancelled even when it has already been pushed onto its inbox,
// and the caller learns that the inbox will settle it.
func TestClockCancelAfterPop(t *testing.T) {
	c := acquireClock(t)
	inbox := NewFIFO[func()]()
	ran := false
	id := c.After(inbox, 0, func() { ran = true })
	fn, _ := inbox.Pop() // popped and pushed: the inbox owns it now
	if cancelled, queued := c.Cancel(id); !cancelled || !queued {
		t.Fatalf("Cancel of a queued timer = (%v, %v), want (true, true)", cancelled, queued)
	}
	fn()
	if ran {
		t.Fatal("a timer cancelled after it was queued still ran")
	}
	if cancelled, _ := c.Cancel(id); cancelled {
		t.Fatal("second Cancel reported the timer still pending")
	}
	pending := c.After(inbox, time.Hour, func() { t.Error("cancelled timer ran") })
	if cancelled, queued := c.Cancel(pending); !cancelled || queued {
		t.Fatalf("Cancel of a pending timer = (%v, %v), want (true, false)", cancelled, queued)
	}
}
