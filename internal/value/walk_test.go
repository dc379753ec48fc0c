package value

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dbpl/internal/types"
)

// progValues runs data as a program that builds values on a stack, one
// byte an instruction: the low three bits are the operation, the high five
// its argument a. Containers are built from values already on the stack,
// dup shares one, and knot closes a cycle. It returns the two values on top
// of the stack (the same one twice when only one was built).
//
//	0 Int(a)     1 String of label a     2 ⊥, unit, true or Float(a), by a%4
//	3 record of the a&3 values on top, labelled from label a>>2 on
//	4 list of the a&3 values on top      5 set of the a&3 values on top
//	6 a < 4: tag label a&3 over the value on top; a ≥ 4: knot: the record
//	  below the top is added to the top, if a list or set, and gets the
//	  top as its field label a>>2, and the top is popped
//	7 dup: push the value a%len below the top again
func progValues(data []byte) (Value, Value) {
	var st []Value
	pop := func(n int) []Value {
		n = min(n, len(st))
		out := append([]Value(nil), st[len(st)-n:]...)
		st = st[:len(st)-n]
		return out
	}
	label := func(i int) string { return string(rune('a' + i%8)) }
	for _, b := range data {
		a := int(b >> 3)
		switch b & 7 {
		case 0:
			st = append(st, Int(a))
		case 1:
			st = append(st, String(label(a)))
		case 2:
			st = append(st, []Value{Bottom, Unit, Bool(true), Float(a)}[a%4])
		case 3:
			r := NewRecord()
			for i, v := range pop(a & 3) {
				r.Set(label(a>>2+i), v)
			}
			st = append(st, r)
		case 4:
			st = append(st, NewList(pop(a&3)...))
		case 5:
			st = append(st, NewSet(pop(a&3)...))
		case 6:
			if a < 4 && len(st) > 0 {
				st = append(st, NewTag(label(a&3), pop(1)[0]))
			} else if r, ok := below(st).(*Record); a >= 4 && ok {
				switch c := st[len(st)-1].(type) {
				case *List:
					c.Append(r)
				case *Set:
					c.Add(r)
				}
				r.Set(label(a>>2), pop(1)[0])
			}
		case 7:
			if len(st) > 0 {
				st = append(st, st[len(st)-1-a%len(st)])
			}
		}
	}
	switch len(st) {
	case 0:
		return Unit, Unit
	case 1:
		return st[0], st[0]
	}
	return st[len(st)-2], st[len(st)-1]
}

// below returns the value below the top of st, or nil.
func below(st []Value) Value {
	if len(st) < 2 {
		return nil
	}
	return st[len(st)-2]
}

// Instructions for the seeds of FuzzWalk.
func pInt(a int) byte       { return byte(a<<3 | 0) }
func pRec(n, from int) byte { return byte((from<<2|n)<<3 | 3) }
func pList(n int) byte      { return byte(n<<3 | 4) }
func pSet(n int) byte       { return byte(n<<3 | 5) }
func pTag(l int) byte       { return byte(l<<3 | 6) }
func pKnot(l int) byte      { return byte(l<<5 | 6) }
func pDup(below int) byte   { return byte(below<<3 | 7) }
func pAtom(a int) byte      { return byte(a<<3 | 2) }
func pStr(l int) byte       { return byte(l<<3 | 1) }
func dagProg(levels int) []byte {
	var p []byte
	for range levels {
		p = append(p, pDup(0), pRec(2, 0))
	}
	return p
}

// walkSeeds are FuzzWalk's seeds: DAGs of records, lists, sets and tags,
// and a pair whose order needs Leq to take back a failed set candidate's
// assumptions: A = {a: {x, z}, b: x} ⋢ B = {a: {y}, b: y} with x = {a: 1},
// y = {a: 2}, z = {}. Trying x for y assumes x ⊑ y; left behind, the
// assumption would make b: x ⊑ y hold. The last seed is two records that
// each reach themselves through a set, h = {a: 1, b: {h}}.
func walkSeeds() [][]byte {
	undo := []byte{
		pInt(1), pRec(1, 0), pInt(2), pRec(1, 0), pRec(0, 0), // x y z
		pDup(2), pDup(1), pSet(2), pDup(3), pRec(2, 0), // A
		pDup(2), pSet(1), pDup(3), pRec(2, 0), // B
	}
	dags := append(append([]byte{pInt(1), pRec(1, 0)}, dagProg(8)...), pInt(2), pRec(1, 0))
	dags = append(dags, dagProg(8)...)
	same := append(append([]byte{pInt(1), pRec(1, 1)}, dagProg(12)...), pDup(0))
	mixed := []byte{pStr(1), pAtom(2), pList(2), pDup(0), pSet(2), pTag(1), pDup(0), pRec(2, 2),
		pDup(0), pList(2), pDup(0), pInt(3), pRec(3, 0), pAtom(0), pDup(1), pRec(2, 1)}
	sets := []byte{pInt(1), pRec(1, 0), pInt(1), pInt(2), pRec(2, 0), pSet(2), pDup(0), pRec(2, 0),
		pInt(1), pRec(1, 0), pSet(1), pDup(0), pRec(2, 0)}
	holder := []byte{pInt(1), pRec(1, 0), pDup(0), pSet(1), pKnot(1)}
	return [][]byte{undo, dags, same, mixed, sets, append(holder, holder...)}
}

// FuzzWalk is the differential test of the walks' memo: on the pairs
// progValues builds, Leq, Join, Meet and the conformance check memoizing
// every step from the start, as a second pass does, give the first pass's
// verdict whenever the first pass is not spent, and the public functions
// give the memo's always — but for a cyclic value, which the conformance
// check leaves undecided, as the cycle check must find. Copy gives an
// Equal value with as many distinct containers.
func FuzzWalk(f *testing.F) {
	for _, s := range walkSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		a, b := progValues(data)
		small := unfolded(a) <= 1<<12 && unfolded(b) <= 1<<12
		for _, p := range [][2]Value{{a, b}, {b, a}, {a, a}} {
			checkWalks(t, p[0], p[1], small)
		}
		for _, v := range []Value{a, b} {
			c := Copy(v)
			if small && !Equal(c, v) {
				t.Fatalf("Copy(%s) = %s", v, c)
			}
			if n, m := len(containers(v)), len(containers(c)); n != m {
				t.Fatalf("Copy of a value with %d distinct containers has %d", n, m)
			}
		}
	})
}

// checkWalks compares the first pass and the memoizing walk of each
// operation on x and y.
func checkWalks(t *testing.T, x, y Value, small bool) {
	t.Helper()
	var lp leqWalk
	lm := leqWalk{walk: walk[pair, bool]{path: true}}
	leqPlain, leqMemo := leq(x, y, &lp), leq(x, y, &lm)
	if !lp.spent && leqPlain != leqMemo || Leq(x, y) != leqMemo {
		t.Fatalf("Leq(%s, %s): first pass %v (spent %v), memo %v, Leq %v", x, y, leqPlain, lp.spent, leqMemo, Leq(x, y))
	}

	var jp joinWalk
	jm := joinWalk{walk: walk[pair, Value]{path: true}}
	joinPlain, errPlain := join(x, y, &jp)
	joinMemo, errMemo := join(x, y, &jm)
	jm.fill()
	if (errMemo == nil) != !errors.Is(errMemo, ErrConflict) {
		t.Fatalf("join(%s, %s) on a memo: %v", x, y, errMemo)
	}
	if !jp.spent && ((errPlain == nil) != (errMemo == nil) || small && errPlain == nil && !Equal(joinPlain, joinMemo)) {
		t.Fatalf("Join(%s, %s): first pass (%v, %v), memo (%v, %v)", x, y, joinPlain, errPlain, joinMemo, errMemo)
	}
	if j, err := Join(x, y); (err == nil) != (errMemo == nil) || small && err == nil && !Equal(j, joinMemo) {
		t.Fatalf("Join(%s, %s) = (%v, %v), memo (%v, %v)", x, y, j, err, joinMemo, errMemo)
	}

	var mp walk[pair, Value]
	mm := walk[pair, Value]{path: true}
	meetPlain, meetMemo := meet(x, y, &mp), meet(x, y, &mm)
	if small && (!mp.spent && !Equal(meetPlain, meetMemo) || !Equal(Meet(x, y), meetMemo)) {
		t.Fatalf("Meet(%s, %s): first pass %s, memo %s", x, y, meetPlain, meetMemo)
	}

	ty := TypeOf(y)
	var cp conformWalk
	cm := conformWalk{walk: walk[typed, verdict]{path: true}}
	okPlain, decPlain := conform(x, ty, 0, &cp)
	okMemo, decMemo := conform(x, ty, 0, &cm)
	if !cp.spent && (okPlain != okMemo || decPlain != decMemo) {
		t.Fatalf("%s : %s: first pass (%v, %v), memo (%v, %v)", x, ty, okPlain, decPlain, okMemo, decMemo)
	}
	if got, want := cm.cycle, onCycle(x); got != want {
		t.Fatalf("the conformance walk of %s finds a cycle: %v, want %v", x, got, want)
	} else if want {
		okMemo, decMemo = false, false
	}
	if ok, dec := conforms(x, ty); ok != okMemo || dec != decMemo {
		t.Fatalf("%s : %s: conforms (%v, %v), memo (%v, %v)", x, ty, ok, dec, okMemo, decMemo)
	}
}

// unfolded returns the size of v's tree unfolding, saturated at 1<<20,
// which a cyclic value's is.
func unfolded(v Value) int {
	memo := map[Value]int{}
	var size func(Value) int
	size = func(v Value) int {
		elems, ok := children(v)
		if !ok {
			return 1
		}
		if n, ok := memo[v]; ok {
			return n
		}
		memo[v] = 1 << 20 // a cycle back to v
		n := 1
		for _, e := range elems {
			n = min(n+size(e), 1<<20)
		}
		memo[v] = n
		return n
	}
	return size(v)
}

// containers returns the distinct containers reachable from v.
func containers(v Value) map[Value]bool {
	seen := map[Value]bool{}
	var visit func(Value)
	visit = func(v Value) {
		elems, ok := children(v)
		if !ok || seen[v] {
			return
		}
		seen[v] = true
		for _, e := range elems {
			visit(e)
		}
	}
	visit(v)
	return seen
}

// onCycle reports whether a container reachable from v lies on a cycle: a
// depth-first search that finds a container on its own path.
func onCycle(v Value) bool {
	const onPath, done = 1, 2
	state := map[Value]int{}
	var visit func(Value) bool
	visit = func(v Value) bool {
		elems, ok := children(v)
		if !ok || state[v] == done {
			return false
		}
		if state[v] == onPath {
			return true
		}
		state[v] = onPath
		for _, e := range elems {
			if visit(e) {
				return true
			}
		}
		state[v] = done
		return false
	}
	return visit(v)
}

// children returns what the container v holds, and false when v is no
// container.
func children(v Value) ([]Value, bool) {
	switch x := v.(type) {
	case *Record:
		return x.values, true
	case *List:
		return x.Elems, true
	case *Set:
		return x.elems, true
	case *Tag:
		return []Value{x.Payload}, true
	}
	return nil, false
}

// dag returns a value of d levels over the leaf, each level {l: prev, r:
// prev}: d+1 distinct containers with a tree unfolding of 2^(d+1)-1.
func dag(d int, leaf Value) Value {
	v := leaf
	for range d {
		v = Rec("l", v, "r", v)
	}
	return v
}

// within runs f and reports whether it returned within d. A call that does
// not is left running.
func within(d time.Duration, f func()) bool {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestBranchingCycleTerminates: a = {a = 1, l = a, r = a} unfolds to a full
// binary tree, so a walk that catches a cycle only on its own path takes
// time exponential in how deep it goes before looking. Leq, Join, Meet and
// Copy each return within 1 s, with the coinductive verdicts, and the
// results close their cycles.
func TestBranchingCycleTerminates(t *testing.T) {
	branching := func(fields ...any) *Record {
		r := Rec(fields...)
		r.Set("l", r)
		r.Set("r", r)
		return r
	}
	a := branching("a", Int(1))
	b := branching("a", Int(1), "b", Int(2))
	var leqAB, leqBA bool
	var j, m, c Value
	var err error
	for name, f := range map[string]func(){
		"Leq":  func() { leqAB, leqBA = Leq(a, b), Leq(b, a) },
		"Join": func() { j, err = Join(a, b) },
		"Meet": func() { m = Meet(a, b) },
		"Copy": func() { c = Copy(a) },
	} {
		if !within(time.Second, f) {
			t.Fatalf("%s on a branching cycle did not return within 1 s", name)
		}
	}
	if !leqAB || leqBA {
		t.Errorf("Leq(a, b), Leq(b, a) = %v, %v; want true, false", leqAB, leqBA)
	}
	for name, v := range map[string]Value{"a ⊔ b": j, "a ⊓ b": m, "Copy(a)": c} {
		r, ok := v.(*Record)
		if !ok || r.MustGet("l") != r || r.MustGet("r") != r {
			t.Errorf("%s is not one record whose l and r are itself", name)
		}
	}
	if err != nil || !Equal(j.(*Record).MustGet("b"), Int(2)) {
		t.Errorf("a ⊔ b = (%v, %v), want b = 2", j, err)
	}
	if c == a || !Equal(c, a) {
		t.Error("Copy(a) is a itself or keys differently")
	}
}

// TestWalkCostOnDAGs: on a DAG of d levels, Leq, Join, Meet, Copy and the
// conformance walk at the value's own record type cost the d+1 distinct
// containers, not their unfolding of 2^(d+1)-1: each takes at most 8× as
// long at d = 24, which a first pass walks, and at d = 40, which is
// deeper than pathFrom, as at d = 10. So does ConformsInterned, at d = 16:
// interning the value's type writes its unfolding, so the conforms row
// times the walk behind ConformsInterned on the type itself.
func TestWalkCostOnDAGs(t *testing.T) {
	one, two := Rec("n", Int(1)), Rec("n", Int(1), "m", Int(2))
	deep := []int{24, 40}
	pair := func(f func(x, y Value)) func(d int) func() {
		return func(d int) func() {
			x, y := dag(d, one), dag(d, two)
			return func() { f(x, y) }
		}
	}
	for _, o := range []struct {
		name string
		deep []int
		prep func(d int) func() // the call to time on a DAG of d levels
	}{
		{"Leq", deep, pair(func(x, y Value) { Leq(x, y) })},
		{"Join", deep, pair(func(x, y Value) { Join(x, y) })},
		{"Meet", deep, pair(func(x, y Value) { Meet(x, y) })},
		{"Copy", deep, pair(func(x, _ Value) { Copy(x) })},
		{"conforms", deep, func(d int) func() {
			x := dag(d, one)
			ty := TypeOf(x)
			return func() {
				if ok, decided := conforms(x, ty); !ok || !decided {
					t.Fatalf("a DAG of %d levels: conforms = (%v, %v) at its own type", d, ok, decided)
				}
			}
		}},
		{"ConformsInterned", []int{16}, func(d int) func() {
			x := dag(d, one)
			in := types.Intern(TypeOf(x))
			return func() { ConformsInterned(x, in) }
		}},
	} {
		for _, d := range o.deep {
			timeOp(t, o.name, d, o.prep)
		}
	}
}

// timeOp fails t unless prep(deep)'s call takes at most 8× prep(10)'s.
// Each size is timed best of five, over enough calls that the smaller one
// uses ½ ms of CPU, with the collector off, on one locked OS thread's CPU
// clock (ThreadCPU), so a busy host's other processes are not charged to
// the call; the deeper call gets 1 s to return at all.
func timeOp(t *testing.T, name string, deep int, prep func(d int) func()) {
	t.Helper()
	small, large := prep(10), prep(deep)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if !within(time.Second, large) {
		t.Fatalf("%s at d = %d did not return within 1 s", name, deep)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := ThreadCPU()
	small()
	reps := max(20, int(500*time.Microsecond/max(ThreadCPU()-start, 1)))
	run := func(f func()) time.Duration {
		start := ThreadCPU()
		for range reps {
			f()
		}
		return ThreadCPU() - start
	}
	ts, tl := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		ts, tl = min(ts, run(small)), min(tl, run(large))
	}
	per := func(d time.Duration) time.Duration { return d / time.Duration(reps) }
	t.Logf("%s: d=10 %v, d=%d %v, ratio %.2f", name, per(ts), deep, per(tl), float64(tl)/float64(ts))
	if tl > 8*ts {
		t.Errorf("%s took %v at d = %d, %.1f× its %v at d = 10; want ≤ 8×", name, per(tl), deep, float64(tl)/float64(ts), per(ts))
	}
}

// TestConformsOnePassOnDAGs: the conformance walk of a DAG of 10 levels
// at its own type, which covers every container, takes exactly the steps
// of the cycle search alone, the walk at Top: one pass, each container
// entered once for both. A walk that searched first and then conformed
// would take twice as many.
func TestConformsOnePassOnDAGs(t *testing.T) {
	x := dag(10, Rec("n", Int(1)))
	var typed, search conformWalk
	if ok, decided := typed.run(x, TypeOf(x)); !ok || !decided {
		t.Fatalf("a DAG of 10 levels: conforms = (%v, %v) at its own type", ok, decided)
	}
	search.run(x, types.Top)
	if typed.steps != search.steps || typed.path || typed.cycle {
		t.Errorf("the conformance walk took %d steps (second pass %v), the cycle search alone %d", typed.steps, typed.path, search.steps)
	}
	t.Logf("%d steps on %d containers", typed.steps, len(containers(x)))
}

// TestCopyKeepsSharing: the copy of a DAG is a DAG with exactly as many
// distinct containers, none of them the input's, so a copy of a value that
// shares costs its containers, not their unfolding.
func TestCopyKeepsSharing(t *testing.T) {
	list := NewList(Int(1))
	leaf := Rec("n", NewTag("T", list), "m", list)
	for _, v := range []Value{dag(20, leaf), NewSet(dag(3, leaf), dag(4, leaf))} {
		in, out := containers(v), containers(Copy(v))
		if len(out) != len(in) {
			t.Errorf("Copy of a value with %d distinct containers has %d", len(in), len(out))
		}
		for c := range out {
			if in[c] {
				t.Fatal("Copy shares a container with its input")
			}
		}
	}
}

// TestWalkAllocsOnWideTrees: a tree of many containers, the shape of a
// relation or a list of records, takes one pass that memoizes nothing.
// Leq, and Leq on sets, whose candidates each enter a pair, allocate
// nothing; Join allocates only its result; the conformance walk and its
// cycle check allocate nothing.
func TestWalkAllocsOnWideTrees(t *testing.T) {
	const n = 4096
	recs := func(n int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = Rec("id", Int(i), "name", String("x"), "addr", Rec("zip", Int(i%90)))
		}
		return out
	}
	x, y := NewList(recs(n)...), NewList(recs(n)...)
	r, rp := NewSet(recs(256)...), NewSet(recs(256)...)
	in := types.Intern(types.MustParse("List[{id: Int, name: String, addr: {zip: Int}}]"))
	for _, c := range []struct {
		name string
		f    func()
		want float64
	}{
		{"Leq", func() { Leq(x, y) }, 0},
		{"SetLeq", func() { SetLeq(r, rp) }, 0},
		{"Join", func() { Join(x, y) }, 2 + n*2}, // the list, its array, n records of two fields and a nested one
		{"ConformsInterned", func() { ConformsInterned(x, in) }, 0},
	} {
		if got := testing.AllocsPerRun(10, c.f); got != c.want {
			t.Errorf("%s on a list of %d records: %v allocations, want %v", c.name, n, got, c.want)
		}
	}
}

// holder returns h = {a = 1, in = {h}} with the fields given besides: a
// record that reaches itself through a set.
func holder(fields ...any) *Record {
	h := Rec(append([]any{"a", Int(1)}, fields...)...)
	h.Set("in", NewSet(h))
	return h
}

// TestJoinCycleThroughSet: Join of values that reach themselves through a
// set returns within 1 s, and the join closes the cycle through its own
// set: j = {a = 1, ..., in = {j}}.
func TestJoinCycleThroughSet(t *testing.T) {
	for _, c := range []struct {
		name string
		x, y *Record
		b    bool // the join holds b = 2
	}{
		{"h ⊔ h", holder(), nil, false},
		{"h ⊔ a copy of h", holder(), holder(), false},
		{"h ⊔ g, g with one more field", holder(), holder("b", Int(2)), true},
	} {
		if c.y == nil {
			c.y = c.x
		}
		var j Value
		var err error
		if !within(time.Second, func() { j, err = Join(c.x, c.y) }) {
			t.Fatalf("%s did not return within 1 s", c.name)
		}
		r, ok := j.(*Record)
		if err != nil || !ok {
			t.Fatalf("%s = (%v, %v), want a record", c.name, j, err)
		}
		in, ok := r.MustGet("in").(*Set)
		if !ok || in.Len() != 1 || in.Elems()[0] != r {
			t.Errorf("%s = %s: its in is not the set of itself", c.name, r)
		}
		if b, ok := r.Get("b"); ok != c.b || ok && !Equal(b, Int(2)) {
			t.Errorf("%s = %s: field b %v, want it %v", c.name, r, b, c.b)
		}
		if !Leq(c.x, r) || !Leq(c.y, r) {
			t.Errorf("%s = %s is not above both", c.name, r)
		}
	}
}

// TestCyclicRings: the conformance walk's cycle search finds a ring of
// records however long, past pathFrom included, and passes a chain that
// deep and a DAG, at Top and at the value's own type.
func TestCyclicRings(t *testing.T) {
	ring := func(n int) Value {
		first := Rec("n", Int(0))
		last := first
		for i := 1; i < n; i++ {
			r := Rec("n", Int(i))
			last.Set("next", r)
			last = r
		}
		last.Set("next", first)
		return NewList(Int(7), first)
	}
	chain := func(n int) Value {
		var v Value = Int(0)
		for range n {
			v = Rec("next", v)
		}
		return v
	}
	for _, c := range []struct {
		name string
		v    Value
		want bool
	}{
		{"a ring of 1", ring(1), true},
		{"a ring of 3", ring(3), true},
		{"a ring of 2·pathFrom", ring(2 * pathFrom), true},
		{"a chain 4·pathFrom deep", chain(4 * pathFrom), false},
		{"a DAG of 40 levels", dag(40, Int(1)), false},
	} {
		for _, ty := range []types.Type{types.Top, TypeOf(c.v)} {
			var w conformWalk
			w.run(c.v, ty)
			if w.cycle != c.want {
				t.Errorf("the conformance walk of %s at %s finds a cycle: %v, want %v", c.name, ty, w.cycle, c.want)
			}
		}
	}
}
