// Package wallclock holds the two precise wall-clock waits of the deployed
// path. Both exist because a Go timer is no use for a sub-millisecond wait:
// an idle process wakes its timers through an epoll_wait whose timeout is
// in whole milliseconds, so a 200 µs time.Sleep or timer returns after
// about 1.08 ms.
//
//   - Alarm is a one-shot timer the runtime's netpoller watches (a timerfd
//     on Linux). The waiting goroutine is parked and holds neither an OS
//     thread nor a P, another goroutine can re-arm it earlier or close it,
//     and it returns about 10 µs after it was due. It has one user per
//     process: simnet.Clock, the timer queue every wire.NetTransport of the
//     process shares, arms its one Alarm for the head of the queue.
//   - Pause is nanosleep(2): it blocks its thread, cannot be cut short and
//     returns about 55 µs late (the kernel's default timer slack). Its one
//     user is the job log's commit window: the commit leader is usually the
//     only runnable goroutine, and parking it on an Alarm costs a netpoll
//     round trip per window: 15–23 % more CPU per ingested job on a 2-vCPU
//     box.
package wallclock
