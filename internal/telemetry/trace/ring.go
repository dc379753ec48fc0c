// The bounded ring of completed trace trees: fixed memory, newest wins,
// with one refinement: a trace recorded as *forced* (the request was
// slow) is never displaced by ordinary sampled traffic, so the trace that
// explains a slow operation survives until an operator fetches it, even
// on a busy server whose ring turns over in seconds.
package trace

import (
	"sort"
	"sync"
)

type ringEntry struct {
	d      Data
	forced bool
	set    bool
}

// Ring retains the last capacity completed traces.
type Ring struct {
	mu    sync.Mutex
	slots []ringEntry
	next  int
}

// NewRing builds a ring holding capacity traces; capacity < 1 is
// clamped to 1.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{slots: make([]ringEntry, capacity)}
}

// Record adds a completed trace. Ordinary traces overwrite the oldest
// *ordinary* slot; a forced trace may also overwrite the oldest forced
// slot when nothing else is free. An ordinary trace arriving when every
// slot is forced is dropped — forced entries are the ones an operator is
// owed. Returns whether the trace was kept.
func (r *Ring) Record(d Data, forced bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	// First choice: the next slot in rotation, if it is not protecting a
	// forced entry (or if we are forced ourselves and may displace it).
	n := len(r.slots)
	for i := 0; i < n; i++ {
		at := (r.next + i) % n
		if !r.slots[at].set || !r.slots[at].forced {
			r.slots[at] = ringEntry{d: d, forced: forced, set: true}
			r.next = (at + 1) % n
			return true
		}
	}
	if !forced {
		return false
	}
	// Every slot holds a forced entry; displace the oldest one.
	oldest := 0
	for i := 1; i < n; i++ {
		if r.slots[i].d.Begin.Before(r.slots[oldest].d.Begin) {
			oldest = i
		}
	}
	r.slots[oldest] = ringEntry{d: d, forced: true, set: true}
	r.next = (oldest + 1) % n
	return true
}

// Snapshot returns the retained traces, newest first.
func (r *Ring) Snapshot() []Data {
	r.mu.Lock()
	out := make([]Data, 0, len(r.slots))
	for _, e := range r.slots {
		if e.set {
			out = append(out, e.d)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Begin.After(out[j].Begin) })
	return out
}
