package main

import (
	"encoding/binary"
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is a slice of a shared machine whose
// speed moves by a third to a half for minutes at a time (README.md has the
// measurements): identical work took 6.3 ms of CPU for some minutes and
// 9.1 ms for the next ten. No statistic inside one run removes a shift that
// outlasts the run, so every timed stretch is bracketed by a calibration
// kernel — fixed work of the benchmark's own, none of the repository's code
// — and every end-to-end time is reported at the reference host speed: the
// time the process spent on the CPU × calibRef ÷ (what the kernel took around
// it), plus the time it spent off the CPU as it was. Off the CPU means in the
// modeled disk's sleep, which a slow host does not stretch: a stretch's wall
// time minus its CPU time (the benchmark runs on one P), and of one write's
// latency exactly the one Sync it waits for itself.
//
// The kernel is allocation-heavy on purpose. What slows this host down slows
// allocating, pointer-chasing, collector-driven code — which is what the
// servers are — by more than it slows cache-resident arithmetic: an
// allocation-free kernel (pointer chase in 1 MiB, sort.Ints, FNV) left a 31 %
// range in cpu_us_per_op over 30 runs where this one left 16 % and the raw
// numbers ranged over 74 %.

// calibRef is what the kernel takes on the reference host when it is fast.
// It only fixes the unit: times are "at the speed at which the kernel takes
// calibRef".
const calibRef = 90 * time.Millisecond

const (
	calibRounds = 48
	calibNodes  = 4000
)

type calibNode struct {
	next *calibNode
	key  string
	buf  []byte
}

var calibSink int

// calibrate runs the kernel once and returns how long it took. It collects
// first, so every run of it starts from the same heap and meets the same
// number of collections.
func calibrate() time.Duration {
	runtime.GC()
	t0 := time.Now()
	sum := 0
	for round := 0; round < calibRounds; round++ {
		var head *calibNode
		m := make(map[string]*calibNode)
		keys := make([]string, 0, calibNodes)
		for i := 0; i < calibNodes; i++ {
			b := make([]byte, 0, 24)
			b = binary.AppendUvarint(b, uint64(i)*2654435761)
			b = append(b, "field-name"...)
			n := &calibNode{next: head, key: string(b), buf: b}
			head = n
			m[n.key] = n
			keys = append(keys, n.key)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sum += len(m[k].buf)
		}
		for n := head; n != nil; n = n.next {
			sum += int(n.buf[0])
		}
	}
	calibSink = sum // keeps the work from being optimised away
	return time.Since(t0)
}

// hostClock brackets timed stretches with calibrations: each call of factor
// calibrates once and returns the factor for the stretch since the previous
// call, so n stretches in a row cost n+1 kernels.
type hostClock struct {
	last time.Duration
	// off makes every factor 1 and runs no kernel (the smoke sizing).
	off bool
}

// start calibrates before the first stretch.
func (h *hostClock) start() {
	if !h.off {
		h.last = calibrate()
	}
}

// factor is what a time measured since the previous start or factor call is
// multiplied by: calibRef over the mean of the kernels on either side.
func (h *hostClock) factor() float64 {
	if h.off {
		return 1
	}
	before := h.last
	h.last = calibrate()
	return 2 * float64(calibRef) / float64(before+h.last)
}

// atRef is a stretch's wall time at the reference host speed: the part the
// process was on the CPU scaled by factor, the rest as it was.
func atRef(wall, cpu time.Duration, factor float64) time.Duration {
	if cpu > wall {
		cpu = wall // the clocks' resolutions differ
	}
	return time.Duration(float64(cpu)*factor) + wall - cpu
}

// ownSync is how many modeled Syncs one op of the series waits for itself:
// that much of its latency is sleep whatever the host's speed.
var ownSync = [numSeries]time.Duration{sPut: 1, sDelete: 1, sTxn: 1, sVisible: 1}

// latencyAtRef is one latency of the series at the reference host speed.
func latencyAtRef(sr series, d time.Duration, factor float64) time.Duration {
	asleep := ownSync[sr] * syncDelay
	if asleep > d {
		asleep = d // no samples: the latency reads 0
	}
	return atRef(d, d-asleep, factor)
}
