//go:build !linux

package joblog

import "time"

// pause blocks for d. Off Linux the window is kept to time.Sleep's
// precision, about a millisecond late when the process is otherwise idle.
func pause(d time.Duration) { time.Sleep(d) }
