package main

import (
	"math"
	"sort"

	"dbpl/internal/telemetry"
)

// stat is one reported metric: the median of its samples (segments,
// set-ups or reopens) with the quartiles and sample count beside it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quartiles is Python's statistics.quantiles(v, n=4) — the rule the driver
// applies across runs — so spreads printed here compare with its own.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func newStat(unit string, samples ...float64) stat {
	q1, med, q3 := quartiles(samples)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

// percentile is the nearest-rank q-quantile of ascending samples, 0 when
// there are none.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// tail is the highest percentile of a latency that still has at least ten
// samples beyond it. It is reported, not gated: p95 is what gates.
type tail struct {
	Percentile float64 `json:"percentile"`
	US         float64 `json:"us"`
	Samples    int     `json:"samples"`
}

func tailOf(sorted []int64) tail {
	t := tail{Samples: len(sorted)}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		if float64(len(sorted))*(1-q) >= 10 {
			t.Percentile, t.US = q*100, percentile(sorted, q)/1e3
		}
	}
	return t
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// ---------------------------------------------------------------------------
// Registry and device deltas
// ---------------------------------------------------------------------------

// nodeSnap is one node's public telemetry registry and its device counters
// at an instant; nodeDelta is the change between two of them.
type nodeSnap struct {
	reg *telemetry.Snapshot
	fs  fsCount
}

type nodeDelta nodeSnap

type envSnap []nodeSnap // primary, then follower when there is one

func (e *env) snapshot() envSnap {
	s := envSnap{{reg: e.primary.reg.Snapshot(), fs: e.primary.fs.c.load()}}
	if e.follower != nil {
		s = append(s, nodeSnap{reg: e.follower.reg.Snapshot(), fs: e.follower.fs.c.load()})
	}
	return s
}

func (a envSnap) sub(b envSnap) []nodeDelta {
	d := make([]nodeDelta, len(a))
	for i := range a {
		d[i] = nodeDelta{reg: a[i].reg.Delta(b[i].reg), fs: a[i].fs.sub(b[i].fs)}
	}
	return d
}

// counter sums a counter over the nodes.
func counter(ds []nodeDelta, name string) float64 {
	var sum uint64
	for _, d := range ds {
		v, _ := d.reg.Counter(name)
		sum += v
	}
	return float64(sum)
}

// histMeanUS is the mean of a duration histogram over the nodes, in µs.
func histMeanUS(ds []nodeDelta, name string) float64 {
	return histMean(ds, name) / 1e3
}

func histMean(ds []nodeDelta, name string) float64 {
	var sum int64
	var count uint64
	for _, d := range ds {
		if h, ok := d.reg.Histogram(name); ok {
			sum += h.Sum
			count += h.Count
		}
	}
	return ratio(float64(sum), float64(count))
}

// ratio is a/b, 0 when the workload has no b (a read workload's writes).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
