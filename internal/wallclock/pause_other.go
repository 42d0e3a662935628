//go:build !linux

package wallclock

import "time"

// Pause blocks for d. Off Linux it is time.Sleep, about a millisecond late
// when the process is otherwise idle.
func Pause(d time.Duration) { time.Sleep(d) }
