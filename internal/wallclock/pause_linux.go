package wallclock

import (
	"syscall"
	"time"
)

// Pause blocks the calling thread for d; d <= 0 returns at once. It is
// nanosleep(2) rather than time.Sleep, which returns about a millisecond
// late in an idle process, while nanosleep returns ≈55 µs late. The
// goroutine holds its OS thread for the whole pause and nothing can
// interrupt it; a wait that must be cut short, or that many goroutines make
// at once, belongs on an Alarm.
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
