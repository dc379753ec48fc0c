package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the noise gate's word on one (workload, metric) pair.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares a metric's two medians. worsening is the change of the
// median in the metric's bad direction as a share of the old median. The
// metric is worse when that exceeds the bound — unless the spread (the
// wider interquartile range of the two sides, as a share of its median)
// exceeds the bound too and the two quartile ranges still overlap, in
// which case nothing can be said: unresolved, never "unchanged".
func judge(d metricDef, old, cur stat) (v verdict, worsening float64) {
	if old.Value != 0 {
		worsening = (cur.Value - old.Value) / old.Value
	}
	apart := cur.Q1 > old.Q3
	if d.better == "higher" {
		worsening = -worsening
		apart = cur.Q3 < old.Q1
	}
	spread := old.spread()
	if s := cur.spread(); s > spread {
		spread = s
	}
	switch {
	case worsening > d.bound && (spread <= d.bound || apart):
		return worse, worsening
	case spread > d.bound:
		return unresolved, worsening
	}
	return ok, worsening
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runCheck prints one row per (workload, end-to-end metric) of two result
// files and returns the exit code: 1 on any worse row or a larger
// fail_share, 2 when the files cannot be compared.
func runCheck(w io.Writer, oldPath, newPath string) int {
	oldF, err := readResults(oldPath)
	if err == nil {
		var newF *resultFile
		if newF, err = readResults(newPath); err == nil {
			return check(w, oldF, newF)
		}
	}
	fmt.Fprintln(w, "bench -check:", err)
	return 2
}

func check(w io.Writer, oldF, newF *resultFile) int {
	code := 0
	fmt.Fprintf(w, "%-17s %-14s %14s %26s %14s %26s %16s  %s\n",
		"workload", "metric", "old median", "[q1, q3]", "new median", "[q1, q3]", "new/old", "verdict")
	for _, nr := range newF.Workloads {
		var or *result
		for i := range oldF.Workloads {
			if oldF.Workloads[i].Workload == nr.Workload {
				or = &oldF.Workloads[i]
			}
		}
		if or == nil || or.EndToEnd == nil || nr.EndToEnd == nil {
			fmt.Fprintf(w, "%-17s has no end-to-end result on both sides\n", nr.Workload)
			code = 2
			continue
		}
		for _, d := range endToEndDefs {
			o, n := or.EndToEnd[d.name], nr.EndToEnd[d.name]
			v, _ := judge(d, o, n)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-14s %14.4f %26s %14.4f %26s %16s  %s\n", nr.Workload, d.name,
				o.Value, fmt.Sprintf("[%.4f, %.4f]", o.Q1, o.Q3),
				n.Value, fmt.Sprintf("[%.4f, %.4f]", n.Q1, n.Q3),
				fmt.Sprintf("%.3f of %.4g", ratio(n.Value, o.Value), o.Value), v)
		}
		of, nf := ratio(float64(or.Failed), float64(or.Attempted)), ratio(float64(nr.Failed), float64(nr.Attempted))
		v := ok
		if nf > of {
			v, code = worse, 1
		}
		fmt.Fprintf(w, "%-17s %-14s %14.6f %26s %14.6f %26s %16s  %s\n", nr.Workload, "fail_share", of, "", nf, "", "", v)
	}
	return code
}
