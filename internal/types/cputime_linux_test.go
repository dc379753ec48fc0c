//go:build linux

package types

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the CPU time the calling OS thread has used. Time the
// thread spent descheduled, while a neighbour held the CPU, does not
// count, so a cost test that locks its goroutine to its thread and
// times on this clock measures its own work. Elsewhere than linux it is
// the wall clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
