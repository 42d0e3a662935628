package wallclock

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

func newAlarm(t *testing.T) *Alarm {
	t.Helper()
	a, err := NewAlarm()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

// waitAsync runs Wait on its own goroutine; the result arrives on the
// returned channel.
func waitAsync(a *Alarm) <-chan bool {
	fired := make(chan bool, 1)
	go func() { fired <- a.Wait() }()
	return fired
}

// A short alarm fires no sooner than it was set for and, on Linux, well
// inside the millisecond a Go timer would round it up to.
func TestAlarmShortWait(t *testing.T) {
	a := newAlarm(t)
	const d = 200 * time.Microsecond
	took := make([]time.Duration, 31)
	for i := range took {
		start := time.Now()
		a.Set(d)
		if !a.Wait() {
			t.Fatal("Wait reported the alarm closed")
		}
		took[i] = time.Since(start)
		if took[i] < d {
			t.Fatalf("Set(%v)+Wait returned after %v", d, took[i])
		}
	}
	slices.Sort(took)
	if med := took[len(took)/2]; runtime.GOOS == "linux" && med >= 250*time.Microsecond {
		t.Errorf("Set(%v)+Wait: median %v, want < 250µs", d, med)
	}
}

// Re-arming a parked Wait's alarm earlier wakes it at the new time.
func TestAlarmRearmEarlierWakesEarlier(t *testing.T) {
	a := newAlarm(t)
	a.Set(time.Hour)
	fired := waitAsync(a)
	time.Sleep(5 * time.Millisecond) // let the waiter park
	a.Set(time.Millisecond)
	select {
	case ok := <-fired:
		if !ok {
			t.Fatal("Wait reported the alarm closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed alarm never fired")
	}
}

// An expiry that comes before Wait is not lost: Wait returns at once.
func TestAlarmExpiryBeforeWaitReturnsAtOnce(t *testing.T) {
	a := newAlarm(t)
	for i := 0; i < 20; i++ {
		a.Set(50 * time.Microsecond)
		time.Sleep(2 * time.Millisecond) // the expiry, and its poll event, come first
		select {
		case ok := <-waitAsync(a):
			if !ok {
				t.Fatal("Wait reported the alarm closed")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: an expiry before Wait was lost", i)
		}
	}
}

// Close wakes a Wait parked on an alarm that is not set, and every later
// Wait reports the alarm closed.
func TestAlarmCloseWakesWait(t *testing.T) {
	a := newAlarm(t)
	fired := waitAsync(a)
	time.Sleep(5 * time.Millisecond) // let the waiter park
	a.Close()
	select {
	case ok := <-fired:
		if ok {
			t.Fatal("Wait on a closed alarm reported it fired")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the parked Wait")
	}
	if a.Wait() {
		t.Fatal("Wait after Close reported the alarm fired")
	}
}

// Set after Close does nothing and does not panic.
func TestAlarmSetAfterCloseHarmless(t *testing.T) {
	a := newAlarm(t)
	a.Close()
	a.Set(time.Microsecond)
	a.Set(0)
	a.Set(time.Hour)
	if a.Wait() {
		t.Fatal("Wait after Close reported the alarm fired")
	}
	a.Close()
}
