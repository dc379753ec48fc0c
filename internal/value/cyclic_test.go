package value_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"dbpl/internal/persist/codec"
	"dbpl/internal/relation"
	"dbpl/internal/value"
)

// selfRec returns r = {a = a, self = r}.
func selfRec(a int64) *value.Record {
	r := value.Rec("a", value.Int(a))
	r.Set("self", r)
	return r
}

// TestAppendKeyCyclicValues: keys terminate on cyclic values, and so do
// Equal, Set and relation membership, which are decided by keys. Two
// separately built copies of r = {a = 1, self = r} are Equal; a = 1 against
// a = 2 is not. A value folding the same infinite record differently, r' =
// {a = 1, self = {a = 1, self = r'}}, is not Equal to r, while Leq holds
// both ways (AppendKey's rule).
func TestAppendKeyCyclicValues(t *testing.T) {
	r1, r2, s := selfRec(1), selfRec(1), selfRec(2)
	if k1, k2 := value.Key(r1), value.Key(r2); k1 != "{1:a=i1,4:self=^1}" || k2 != k1 {
		t.Errorf("Key(r1), Key(r2) = %q, %q; want both {1:a=i1,4:self=^1}", k1, k2)
	}
	if !value.Equal(r1, r2) || value.Equal(r1, s) {
		t.Errorf("Equal(r1, r2), Equal(r1, s) = %v, %v; want true, false", value.Equal(r1, r2), value.Equal(r1, s))
	}
	folded := value.Rec("a", value.Int(1), "self", value.Rec("a", value.Int(1)))
	folded.MustGet("self").(*value.Record).Set("self", folded)
	if value.Equal(r1, folded) || !value.Leq(r1, folded) || !value.Leq(folded, r1) {
		t.Errorf("r1 against r': Equal %v, Leq both ways %v, %v; want false, true, true",
			value.Equal(r1, folded), value.Leq(r1, folded), value.Leq(folded, r1))
	}

	set := value.NewSet(r1)
	if set.Add(r2) || !set.Add(s) || !set.Contains(r2) || set.Contains(folded) || set.Len() != 2 {
		t.Errorf("the set of r1, r2 and s holds %d members, want 2 (r1 = r2 ≠ s)", set.Len())
	}
	if !set.Remove(r2) || set.Contains(r1) {
		t.Error("Remove(r2) did not remove r1")
	}
	rel := relation.New(r1, s)
	if !rel.Contains(r2) || rel.Contains(folded) {
		t.Errorf("relation {r1, s}: Contains(r2), Contains(r') = %v, %v; want true, false", rel.Contains(r2), rel.Contains(folded))
	}

	// A list holding itself, and a cycle through a set.
	l1, l2 := value.NewList(value.Int(1)), value.NewList(value.Int(1))
	l1.Append(l1)
	l2.Append(l2)
	if !value.Equal(l1, l2) {
		t.Error("two lists holding themselves are not Equal")
	}
	holder := value.Rec("a", value.Int(1))
	cyc := value.NewSet(holder)
	holder.Set("in", cyc)
	if k := value.Key(cyc); k != "S({1:a=i1,2:in=^2})" {
		t.Errorf("Key of a set on a cycle = %q, want S({1:a=i1,2:in=^2})", k)
	}

	// A cycle entered ten records deep keys with its shortest
	// back-reference, as one at the top does.
	p := value.Rec("a", value.Int(1))
	p.Set("q", value.Rec("a", value.Int(2), "p", p))
	var deep value.Value = p
	for range 10 {
		deep = value.Rec("n", deep)
	}
	want := strings.Repeat("{1:n=", 10) + "{1:a=i1,1:q={1:a=i2,1:p=^2}}" + strings.Repeat("}", 10)
	if k := value.Key(deep); k != want {
		t.Errorf("Key of a 2-cycle under ten records = %q, want %q", k, want)
	}
}

// TestStringAndCopyCyclicValues: String writes a cyclic value's
// back-reference as its key does, and Copy ties the knot as Join does. The
// copy is cyclic, Leq holds both ways with the original, and it shares no
// container with it.
func TestStringAndCopyCyclicValues(t *testing.T) {
	r := selfRec(1)
	l := value.NewList(value.Int(1))
	l.Append(l)
	for _, c := range []struct {
		v    value.Value
		want string
	}{
		{r, "{a = 1, self = ^1}"},
		{value.NewSet(r), "{{a = 1, self = ^1}}"},
		{value.NewTag("T", r), "T({a = 1, self = ^1})"},
		{l, "list(1, ^1)"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}

	c, ok := value.Copy(r).(*value.Record)
	if !ok || !value.Leq(c, r) || !value.Leq(r, c) {
		t.Fatal("Copy(r) is not a record equivalent to r")
	}
	if c == r || c.MustGet("self") != c {
		t.Error("Copy(r) is not a fresh record holding itself")
	}
	if !value.Equal(c, r) || c.String() != r.String() {
		t.Error("Copy(r) does not key and print as r does")
	}
	lc := value.Copy(l).(*value.List)
	if lc == l || lc.Elems[1] != lc {
		t.Error("Copy(l) is not a fresh list holding itself")
	}
	holder := value.Rec("a", value.Int(1))
	cyc := value.NewSet(holder)
	holder.Set("in", cyc)
	cc := value.Copy(cyc).(*value.Set)
	hc := cc.Elems()[0].(*value.Record)
	if cc == cyc || hc == holder || hc.MustGet("in") != cc {
		t.Error("Copy of a set on a cycle shares a container with it or does not close the cycle")
	}
}

// TestKeyCostLinearInDepth: keying an acyclic list nested 4n deep takes at
// most 8× the time per call of one nested n deep, at n =
// codec.MaxValueDepth/4, the deepest value the codec accepts. A key's path
// lookup that scanned the whole path would make it quadratic. Each sample
// times enough calls to use at least 10 ms of CPU, so one preempted call
// cannot decide it; the two sizes are sampled in turn, after a collection
// and with the collector off, once the goroutine's stack has grown to the
// deeper one, so the ratio is the walk's own; each keeps its fastest
// per-call time of five samples. The samples run on one locked OS thread
// and read its CPU clock (value.ThreadCPU), so time a busy host's other
// processes take from the thread is not charged to the walk.
func TestKeyCostLinearInDepth(t *testing.T) {
	nested := func(depth int) value.Value {
		var v value.Value = value.Int(0)
		for range depth {
			v = value.NewList(v)
		}
		return v
	}
	const sampleFloor = 10 * time.Millisecond
	timeKeys := func(v value.Value, calls int) time.Duration {
		start := value.ThreadCPU()
		for range calls {
			value.AppendKey(nil, v)
		}
		return value.ThreadCPU() - start
	}
	// callsFor is the number of calls of a sample: doubled from one until
	// that many take the sample floor.
	callsFor := func(v value.Value) int {
		calls := 1
		for timeKeys(v, calls) < sampleFloor {
			calls *= 2
		}
		return calls
	}
	n := codec.MaxValueDepth / 4
	small, large := nested(n), nested(4*n)
	// A collection still running from earlier allocations would scan and
	// assist through the first samples: finish one, then switch it off.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cs, cl := callsFor(small), callsFor(large)
	ts, tl := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		ts = min(ts, timeKeys(small, cs)/time.Duration(cs))
		tl = min(tl, timeKeys(large, cl)/time.Duration(cl))
	}
	t.Logf("n=%d: %v a call (%d a sample), 4n: %v (%d), ratio %.2f", n, ts, cs, tl, cl, float64(tl)/float64(ts))
	if tl > 8*ts {
		t.Errorf("keying a list nested %d deep took %v a call, %.1f× the %v of one nested %d deep; want ≤ 8×",
			4*n, tl, float64(tl)/float64(ts), ts, n)
	}
}
