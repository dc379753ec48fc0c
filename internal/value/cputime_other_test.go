//go:build !linux

package value

import "time"

var clockBase = time.Now()

// ThreadCPU is the wall clock where no per-thread CPU clock is read.
func ThreadCPU() time.Duration { return time.Since(clockBase) }
