package wallclock

import (
	"syscall"
	"time"
)

// Pause blocks the calling thread for d; d <= 0 returns at once. It is
// nanosleep(2) rather than time.Sleep: an idle Go process wakes its timers
// through an epoll_wait whose timeout is in whole milliseconds, so a
// sub-millisecond time.Sleep or timer returns about a millisecond late
// (a 200 µs wait takes ≈1.08 ms), while nanosleep returns ≈60 µs late.
// The goroutine holds its OS thread for the whole pause and nothing can
// interrupt it, so callers keep pauses under Short and use a timer for
// longer waits.
func Pause(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	// A signal (the runtime preempts with one) ends the sleep early and
	// leaves the remainder in ts.
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
