// Text rendering of a completed trace: the span tree with per-span
// offsets and durations, shared by `dbpl trace` and the tests that
// assert span nesting.
package trace

import (
	"fmt"
	"io"
	"time"
)

// WriteText renders the trace as an indented tree. The header carries
// the IDs an operator correlates on (trace ID, link) and the facts the
// reply settled; each span line shows its offset from the trace start
// and its duration.
func WriteText(w io.Writer, d Data) {
	fmt.Fprintf(w, "trace %016x  %s  %s", d.ID, d.Op, d.Begin.Format(time.RFC3339Nano))
	if d.Link != 0 {
		fmt.Fprintf(w, "  link=%016x", d.Link)
	}
	if d.Session != "" {
		fmt.Fprintf(w, "  session=%s bytes=%d", d.Session, d.Bytes)
	}
	if d.Err != "" {
		fmt.Fprintf(w, "  err=%s", d.Err)
	}
	fmt.Fprintln(w)
	// Children in recorded order under each parent; the span array is
	// small, so the quadratic child scan is cheaper than building maps.
	var walk func(parent SpanID, depth int)
	walk = func(parent SpanID, depth int) {
		for i, s := range d.Spans {
			if s.Parent != parent {
				continue
			}
			fmt.Fprintf(w, "  %*s%-*s @%-10s %s\n",
				2*depth, "", 24-2*depth, s.Name, rdur(s.Start), rdur(s.Dur))
			walk(SpanID(i), depth+1)
		}
	}
	walk(NoSpan, 0)
}

// rdur rounds a duration for display: microsecond precision is plenty
// against a 1µs histogram floor.
func rdur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
