// The stats verb: fetch and render a running server's telemetry snapshot
// over the wire (the STATS opcode).
//
//	dbpl stats [-watch] [-every 2s] addr
//
// One shot prints the full metric catalogue — counters, gauges, and
// histograms with count/mean/p50/p99 — grouped and sorted by name.
// -watch prints the full snapshot once, then every -every interval
// renders what *changed*: counters as per-second rates, histograms as
// interval-local count/mean/p50/p99, gauges at their current value, with
// unchanged series suppressed — the cumulative catalogue drowns the
// signal when you are watching for movement. STATS bypasses admission
// control, so the snapshot is readable from exactly the server that is
// shedding everyone else.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"dbpl/client"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
)

func runStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	watch := fs.Bool("watch", false, "refresh continuously until interrupted")
	every := fs.Duration("every", 2*time.Second, "refresh interval with -watch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: dbpl stats [-watch] [-every 2s] addr")
	}
	c, err := client.Dial(fs.Arg(0), nil)
	if err != nil {
		return err
	}
	defer c.Close()
	var prev *telemetry.Snapshot
	for {
		snap, err := c.Stats()
		if err != nil {
			return err
		}
		if prev == nil {
			renderSnapshot(out, fs.Arg(0), snap)
		} else {
			renderDelta(out, fs.Arg(0), snap, prev)
		}
		if !*watch {
			return nil
		}
		prev = snap
		time.Sleep(*every)
	}
}

// renderDelta renders what moved between two snapshots: counter rates,
// interval-local histogram stats, current gauge values. Quiet series are
// suppressed.
func renderDelta(out io.Writer, addr string, cur, prev *telemetry.Snapshot) {
	d := cur.Delta(prev)
	secs := cur.TakenAt.Sub(prev.TakenAt).Seconds()
	if secs <= 0 {
		secs = 1
	}
	role, epoch := replIdentity(cur)
	fmt.Fprintf(out, "dbpl stats %s — Δ%.1fs — %s, epoch %d\n",
		addr, secs, wire.Role(role).String(), epoch)
	var headed bool
	for _, c := range d.Counters {
		if c.Value == 0 {
			continue
		}
		if !headed {
			fmt.Fprintln(out, "counters (rate):")
			headed = true
		}
		fmt.Fprintf(out, "  %-56s %.1f/s\n", c.Name, float64(c.Value)/secs)
	}
	headed = false
	// Gauges are instantaneous; show the ones that moved, at their
	// current value.
	prevG := map[string]int64{}
	for _, g := range prev.Gauges {
		prevG[g.Name] = g.Value
	}
	for _, g := range d.Gauges {
		if pv, ok := prevG[g.Name]; ok && pv == g.Value {
			continue
		}
		if !headed {
			fmt.Fprintln(out, "gauges:")
			headed = true
		}
		fmt.Fprintf(out, "  %-56s %d\n", g.Name, g.Value)
	}
	headed = false
	for _, h := range d.Histograms {
		if h.Count == 0 {
			continue
		}
		if !headed {
			fmt.Fprintln(out, "histograms, this interval (count · mean · p50 · p99):")
			headed = true
		}
		fmt.Fprintf(out, "  %-56s %d · %s · %s · %s\n", h.Name, h.Count,
			histVal(h, h.Mean()), histVal(h, float64(h.Quantile(0.5))), histVal(h, float64(h.Quantile(0.99))))
	}
	fmt.Fprintln(out)
}

func renderSnapshot(out io.Writer, addr string, s *telemetry.Snapshot) {
	// The replication identity — role and promotion epoch — leads the
	// report: during a failover it is the first thing an operator needs,
	// and digging it out of the gauge list is too slow at 3am.
	role, epoch := replIdentity(s)
	fmt.Fprintf(out, "dbpl stats %s — taken %s — %s, epoch %d\n",
		addr, s.TakenAt.Format(time.RFC3339), wire.Role(role).String(), epoch)
	if len(s.Counters) > 0 {
		fmt.Fprintln(out, "counters:")
		for _, c := range s.Counters {
			fmt.Fprintf(out, "  %-56s %d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(out, "gauges:")
		for _, g := range s.Gauges {
			fmt.Fprintf(out, "  %-56s %d\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(out, "histograms (count · mean · p50 · p99):")
		for _, h := range s.Histograms {
			fmt.Fprintf(out, "  %-56s %d · %s · %s · %s\n", h.Name, h.Count,
				histVal(h, h.Mean()), histVal(h, float64(h.Quantile(0.5))), histVal(h, float64(h.Quantile(0.99))))
		}
	}
	fmt.Fprintln(out)
}

// replIdentity reads the server's role and promotion epoch from the
// snapshot's gauges.
func replIdentity(s *telemetry.Snapshot) (role, epoch int64) {
	role, _ = s.Gauge("dbpl_repl_role")
	epoch, _ = s.Gauge("dbpl_server_epoch")
	return role, epoch
}

// histVal renders one histogram-scaled value: durations humanly
// (1.5ms-style), counts as plain numbers.
func histVal(h telemetry.HistogramSnapshot, v float64) string {
	if h.Unit == telemetry.UnitDuration {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.1f", v)
}
