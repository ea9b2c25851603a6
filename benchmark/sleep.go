package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2). The runtime's own
// timers ride on epoll's millisecond timeout when the process is idle, which
// makes time.Sleep up to a millisecond late — the same order as the latencies
// the paced phase measures. Like the /proc readers in procstat.go this is
// Linux's; the harness runs nowhere else.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return // done; any other error cannot occur for a valid duration
		}
		ts = rem
	}
}
