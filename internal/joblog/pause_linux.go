package joblog

import (
	"syscall"
	"time"
)

// pause blocks for d. It is nanosleep(2) rather than time.Sleep: an idle Go
// process wakes its timers through a netpoll whose timeout is in whole
// milliseconds, so a sub-millisecond time.Sleep returns about a millisecond
// late, which would double the window it is here to keep. Whoever pauses is
// about to block its thread in fdatasync anyway.
func pause(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	// A signal (the runtime preempts with one) ends the sleep early and
	// leaves the remainder in ts.
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
