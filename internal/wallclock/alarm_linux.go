package wallclock

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, the clock time.Now's monotonic
// reading comes from, so an Alarm set from a time.Time difference fires
// when time.Now says it is due.
const clockMonotonic = 1

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// Alarm is a one-shot wall-clock alarm: a non-blocking CLOCK_MONOTONIC
// timerfd wrapped in an *os.File, so the runtime's netpoller watches it and
// a goroutine in Wait is parked, holding neither an OS thread nor a P. It
// fires about 10 µs after it is due. Set and Close may be called from any
// goroutine; one goroutine at a time may Wait.
type Alarm struct {
	f   *os.File
	rc  syscall.RawConn
	buf [8]byte // the expiration count Wait reads and discards
}

// NewAlarm returns an alarm that is not set.
func NewAlarm() (*Alarm, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("wallclock: timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "alarm")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wallclock: alarm: %w", err)
	}
	return &Alarm{f: f, rc: rc}, nil
}

// Set fires the alarm once, d from now; d <= 0 fires it at once. It
// replaces any earlier setting, including an expiry no Wait has seen yet.
// After Close it does nothing.
func (a *Alarm) Set(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero it_value would disarm the timer instead
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// Control holds a reference on the descriptor for the call, so a Set
	// racing Close either lands before the close or is refused; it never
	// reaches a descriptor number the process has since reused. With a valid
	// descriptor and spec timerfd_settime cannot fail.
	_ = a.rc.Control(func(fd uintptr) {
		syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	})
}

// Wait parks until the alarm fires and reports true; once the alarm is
// closed it reports false. An expiry that came before Wait returns at once.
func (a *Alarm) Wait() bool {
	// (*os.File).Read tries the read before it parks. The poller clears the
	// descriptor's readiness before each read, so a Wait that parked first
	// would lose an expiry that came before it and never wake.
	_, err := a.f.Read(a.buf[:])
	return err == nil
}

// Close releases the timerfd and wakes a parked Wait, which reports false.
func (a *Alarm) Close() { a.f.Close() }
