//go:build !linux

package wallclock

import (
	"sync"
	"time"
)

// Alarm is a one-shot wall-clock alarm. Off Linux it is a time.Timer, about
// a millisecond late when the process is otherwise idle. Set and Close may
// be called from any goroutine; one goroutine at a time may Wait.
type Alarm struct {
	t      *time.Timer
	closed chan struct{}
	once   sync.Once
}

// NewAlarm returns an alarm that is not set.
func NewAlarm() (*Alarm, error) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Alarm{t: t, closed: make(chan struct{})}, nil
}

// Set fires the alarm once, d from now; d <= 0 fires it at once. It
// replaces any earlier setting, including an expiry no Wait has seen yet.
// After Close it does nothing.
func (a *Alarm) Set(d time.Duration) {
	if !a.t.Stop() {
		select {
		case <-a.t.C:
		default:
		}
	}
	a.t.Reset(d)
}

// Wait blocks until the alarm fires and reports true; once the alarm is
// closed it reports false.
func (a *Alarm) Wait() bool {
	select {
	case <-a.closed:
		return false
	default:
	}
	select {
	case <-a.t.C:
		return true
	case <-a.closed:
		return false
	}
}

// Close wakes a blocked Wait, which reports false.
func (a *Alarm) Close() {
	a.once.Do(func() {
		close(a.closed)
		a.t.Stop()
	})
}
