package main

import "time"

// metricDef declares one metric: BENCHMARK.json carries the same names,
// units, directions and bounds (bench_test.go holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the largest worsening of the median, as a share of the
	// parent's, that is not a regression; per-layer metrics have none.
	bound float64
}

// endToEndDefs are what a user of the system sees. Every workload reports
// every one of them; op and op2 are the workload's own two operations
// (spec.op, spec.op2), named per workload in BENCHMARK.json and README.md.
// Every timing carries the widest bound a benchmark may declare: this host
// drifts by a tenth to a quarter over minutes, and README.md records the
// run-to-run spreads that forced it.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"op2_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"heap_live_mb", "MiB", "lower", 0.10},
	{"log_mb", "MiB", "lower", 0.01},
	{"reopen_s", "s", "lower", 0.25},
}

// endToEnd derives the end-to-end metrics of one untraced run. Per-segment
// metrics are a median over the measured segments; every time is at the
// reference host speed (calib.go).
func endToEnd(sp spec, m *measured) map[string]stat {
	per := func(unit string, f func(s *segment) float64) stat {
		v := make([]float64, len(m.segs))
		for i := range m.segs {
			v[i] = f(&m.segs[i])
		}
		return newStat(unit, v...)
	}
	pct := func(sr series, q float64) stat {
		return per("us", func(s *segment) float64 {
			return float64(latencyAtRef(sr, time.Duration(percentile(s.lat[sr], q)), s.host)) / 1e3
		})
	}
	return map[string]stat{
		"setup_s":       newStat("s", m.setupS...),
		"ops_per_s":     per("1/s", func(s *segment) float64 { return float64(s.ops) / atRef(s.wall, s.cpu, s.host).Seconds() }),
		"op_p50_us":     pct(sp.op, 0.50),
		"op_p95_us":     pct(sp.op, 0.95),
		"op2_p50_us":    pct(sp.op2, 0.50),
		"cpu_us_per_op": per("us", func(s *segment) float64 { return ratio(float64(s.cpu.Microseconds()), float64(s.ops)) * s.host }),
		"allocs_per_op": per("count", func(s *segment) float64 { return ratio(float64(s.mallocs), float64(s.ops)) }),
		"heap_live_mb":  newStat("MiB", m.heapMB),
		"log_mb":        newStat("MiB", m.logMB),
		"reopen_s":      newStat("s", m.reopenS...),
	}
}
