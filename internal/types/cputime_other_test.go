//go:build !linux

package types

import "time"

var clockBase = time.Now()

// threadCPU is the wall clock where no per-thread CPU clock is read.
func threadCPU() time.Duration { return time.Since(clockBase) }
