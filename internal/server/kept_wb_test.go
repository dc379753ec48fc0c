// White-box tests of the JOIN relations the index set's type generations
// keep (index.Set.Keep): every JOIN and EXPLAIN JOIN answers as one that
// builds both relations per request, across every change that may or may
// not leave them valid, and what a generation keeps stays bounded.
package server

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dbpl/client"
	"dbpl/internal/dynamic"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/relation"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// referenceJoin is the JOIN reply and the EXPLAIN JOIN text of l and r
// over st built per request, as before relations were kept: each side's
// relation by relation.NewIndexed over its GET answer, relation.PlanJoin,
// and the pairs relation.EachPair, or for a side that proves no key
// relation.JoinPairs, makes.
func referenceJoin(t *testing.T, st *state, l, r *types.Interned) (fields [][]byte, plan string) {
	t.Helper()
	side := func(want *types.Interned) (*relation.Relation, []witnessed) {
		entries, _ := st.idx.GetEntries(want)
		vals := make([]value.Value, len(entries))
		for i, e := range entries {
			vals[i] = e.Dyn.Value()
		}
		rel, pos := relation.NewIndexed(vals)
		ws := make([]witnessed, len(pos))
		for i, p := range pos {
			ws[i] = witnessed{dyn: entries[p].Dyn, bottom: value.HoldsBottom(vals[p])}
		}
		return rel, ws
	}
	left, lw := side(l)
	right, rw := side(r)
	p := relation.PlanJoin(left, right)
	var w codec.ReplyWriter
	if left.Keyed() && right.Keyed() {
		w.Reset(p.Pairs, 0)
		relation.EachPair(left, right, p, func(i, j int) { joinPair(&w, st.idx, lw[i], rw[j]) })
	} else {
		joined, pairs := relation.JoinPairs(left, right, p)
		w.Reset(joined.Len(), 0)
		for i, m := range joined.Members() {
			a, b := lw[pairs[i][0]], rw[pairs[i][1]]
			joinRow(&w, st.idx.Meet(a.dyn.Interned(), b.dyn.Interned()), m, a, b)
		}
	}
	fields, err := w.Fields()
	if err != nil {
		t.Fatal(err)
	}
	return fields, p.String()
}

// typeFields is the request fields of a GET, JOIN or EXPLAIN of ts.
func typeFields(t *testing.T, ts ...types.Type) [][]byte {
	t.Helper()
	fields := make([][]byte, len(ts))
	for i, ty := range ts {
		f, err := wire.MarshalType(ty)
		if err != nil {
			t.Fatal(err)
		}
		fields[i] = f
	}
	return fields
}

// The declared and query types of TestKeptJoinMatchesReference; keptLeft
// and keptRight are TestKeptJoinConcurrentRebinds' too.
var (
	keptLeft  = types.MustParse("{Id: Int, Dept: Int, L: Int}")
	keptWide  = types.MustParse("{Id: Int, Dept: Int, L: Int, L2: String}")
	keptRight = types.MustParse("{Dept: Int, DName: String}")
	keptOther = types.MustParse("{Name: String}")
	keptNew   = types.MustParse("{Id: Int, Dept: Int, L: Int, L3: Int}")
)

// keptQueries are the JOINs TestKeptJoinMatchesReference asks: keyed on
// both sides and hash-joined from either build side, a self-join, a side
// of mixed witnesses, a side keyed on no label ({Dept: Int} matches both
// operands), and sides that share no label.
var keptQueries = [][2]types.Type{
	{keptLeft, keptRight}, {keptRight, keptLeft}, {keptWide, keptRight}, {keptLeft, keptLeft},
	{types.MustParse("{Dept: Int}"), keptRight}, {keptOther, keptRight},
}

func leftMember(id, dept int64) value.Value {
	return value.Rec("Id", value.Int(id), "Dept", value.Int(dept), "L", value.Int(id*7))
}

// keptStore commits 24 left members (4 of them wide), 4 right and 2 others
// to srv.
func keptStore(t *testing.T, srv *Server) {
	t.Helper()
	var names []string
	var vals []value.Value
	var decl []types.Type
	for i := int64(0); i < 24; i++ {
		v, ty := leftMember(i, i%4), keptLeft
		if i%6 == 5 {
			v.(*value.Record).Set("L2", value.String(fmt.Sprint("w", i)))
			ty = keptWide
		}
		names, vals, decl = append(names, fmt.Sprintf("l%02d", i)), append(vals, v), append(decl, ty)
	}
	for i := int64(0); i < 4; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
		vals = append(vals, value.Rec("Dept", value.Int(i), "DName", value.String(fmt.Sprint("dept", i))))
		decl = append(decl, keptRight)
	}
	for i := 0; i < 2; i++ {
		names = append(names, fmt.Sprintf("o%d", i))
		vals, decl = append(vals, value.Rec("Name", value.String(fmt.Sprint("o", i)))), append(decl, keptOther)
	}
	commitRoots(t, srv, names, vals, decl)
}

// checkKeptJoins checks every keptQueries JOIN and EXPLAIN JOIN sess
// answers against referenceJoin over sess's view.
func checkKeptJoins(t *testing.T, srv *Server, sess *session, when string) {
	t.Helper()
	st := sess.view(srv)
	for _, q := range keptQueries {
		want, plan := referenceJoin(t, st, types.Intern(q[0]), types.Intern(q[1]))
		for _, how := range []string{"first", "again"} {
			op, got := srv.handleJoin(sess, typeFields(t, q[0], q[1]))
			if op != wire.OpValues || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s, %s: JOIN %s, %s: reply differs from the per-request join's", when, how, q[0], q[1])
			}
			op, got = srv.handleExplain(sess, typeFields(t, q[0], q[1]))
			if op != wire.OpOK || string(got[0]) != plan {
				t.Fatalf("%s, %s: EXPLAIN JOIN %s, %s = %q, want %q", when, how, q[0], q[1], got[0], plan)
			}
		}
	}
}

// TestKeptJoinMatchesReference: JOIN and EXPLAIN JOIN answer byte for byte
// as a per-request build of both relations does, cold and warm; after a
// PUT of a new operand member, a rebind and a DELETE; after a commit that
// touches neither operand, which keeps both operands' relations; after a
// new member type starts a type generation; inside a transaction with an
// uncommitted write to an operand, which leaves the published relation
// kept, and after its ABORT; and on a follower after each ApplyGroup.
func TestKeptJoinMatchesReference(t *testing.T) {
	srv, pst := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "kept.log"), Config{})
	keptStore(t, srv)
	sess := &session{srv: srv}
	leftQ := types.Intern(keptLeft)
	checkKeptJoins(t, srv, sess, "cold")
	checkKeptJoins(t, srv, sess, "warm")

	bind := func(name string, v value.Value, ty types.Type) {
		t.Helper()
		commitRoots(t, srv, []string{name}, []value.Value{v}, []types.Type{ty})
	}
	bind("l99", leftMember(99, 2), keptLeft)
	checkKeptJoins(t, srv, sess, "after a PUT of a new left member")
	bind("l03", leftMember(3, 1), keptLeft)
	checkKeptJoins(t, srv, sess, "after a rebind")
	if _, err := srv.submit(&sess.req, []txnOp{{name: "l07", del: true}}, "", nil); err != nil {
		t.Fatal(err)
	}
	checkKeptJoins(t, srv, sess, "after a DELETE")

	kept := operandOf(srv.state.Load(), leftQ)
	bind("o0", value.Rec("Name", value.String("renamed")), keptOther)
	if operandOf(srv.state.Load(), leftQ) != kept {
		t.Fatal("a commit that touches no left member rebuilt the left relation")
	}
	checkKeptJoins(t, srv, sess, "after a commit touching neither operand")
	wider := leftMember(50, 3)
	wider.(*value.Record).Set("L3", value.Int(3))
	bind("l50", wider, keptNew)
	checkKeptJoins(t, srv, sess, "after a new member type")

	txn := &session{srv: srv}
	srv.handleBegin(txn, nil)
	d, err := dynamic.MakeAt(leftMember(60, 0), keptLeft)
	if err != nil {
		t.Fatal(err)
	}
	txn.buffer(txnOp{name: "l60", dyn: d})
	txn.buffer(txnOp{name: "l01", del: true})
	published := operandOf(srv.state.Load(), leftQ)
	checkKeptJoins(t, srv, txn, "inside BEGIN with uncommitted writes")
	if operandOf(srv.state.Load(), leftQ) != published {
		t.Fatal("a transaction's JOIN evicted the published left relation")
	}
	checkKeptJoins(t, srv, sess, "beside an open transaction")
	srv.handleAbort(txn, nil)
	checkKeptJoins(t, srv, txn, "after ABORT")

	fsrv, fst := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "follower.log"), Config{Follow: deadAddr(t)})
	fsess := &session{srv: fsrv}
	apply := func() {
		t.Helper()
		raw, _, n, err := pst.ReadGroupsAt(fst.DurableEnd(), 0)
		if err != nil || n == 0 {
			t.Fatalf("ReadGroupsAt = %d groups, %v", n, err)
		}
		fsrv.commitMu.Lock()
		defer fsrv.commitMu.Unlock()
		delta, err := fst.ApplyGroup(raw)
		if err != nil {
			t.Fatal(err)
		}
		fsrv.publish(opsOf(delta.Changes), delta.Groups, 0)
	}
	apply()
	checkKeptJoins(t, fsrv, fsess, "on a follower")
	bind("l02", leftMember(2, 3), keptLeft)
	apply()
	checkKeptJoins(t, fsrv, fsess, "on a follower after a rebind")
}

// TestKeptJoinConcurrentRebinds: JOINs and GETs run while a writer
// rebinds left members, keeping each one's Id and Dept, so every JOIN
// sees a changing left extent: each returns the 136 pairs, one per Id,
// each holding its Dept's name. Under -race this checks that requests
// share kept relations without a data race.
func TestKeptJoinConcurrentRebinds(t *testing.T) {
	srv, _ := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "race.log"), Config{})
	left, right := keptLeft, keptRight
	var names []string
	var vals []value.Value
	var decl []types.Type
	for i := int64(0); i < 136; i++ {
		names, vals, decl = append(names, fmt.Sprintf("l%03d", i)), append(vals, leftMember(i, i%8)), append(decl, left)
	}
	for i := int64(0); i < 8; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
		vals = append(vals, value.Rec("Dept", value.Int(i), "DName", value.String(fmt.Sprint("dept", i))))
		decl = append(decl, right)
	}
	commitRoots(t, srv, names, vals, decl)
	addr := listen(t, srv)
	const readers, rounds = 3, 40
	var readersWG, writerWG sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	dial := func() *client.Client {
		c, err := client.Dial(addr, &client.Options{PoolSize: 1})
		if err != nil {
			errs <- err
		}
		return c
	}
	var writes atomic.Int64
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c := dial()
		if c == nil {
			return
		}
		defer c.Close()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i % 136
			v := leftMember(id, id%8)
			v.(*value.Record).Set("L", value.Int(i))
			if err := c.Put(fmt.Sprintf("l%03d", id), v, left); err != nil {
				errs <- err
				return
			}
			writes.Add(1)
		}
	}()
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			c := dial()
			if c == nil {
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				vs, err := c.Join(left, right)
				if err == nil {
					err = consistentJoin(vs)
				}
				if err == nil {
					var ps []client.Packed
					if ps, err = c.Get(left); err == nil && len(ps) != 136 {
						err = fmt.Errorf("GET returned %d records, want 136", len(ps))
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	readersWG.Wait()
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if writes.Load() == 0 {
		t.Error("the writer rebound no member while the readers ran")
	}
}

// consistentJoin checks a JOIN of TestKeptJoinConcurrentRebinds: 136
// records, one for each Id, each holding the name of its Dept.
func consistentJoin(vs []value.Value) error {
	if len(vs) != 136 {
		return fmt.Errorf("JOIN returned %d records, want 136", len(vs))
	}
	seen := map[int64]bool{}
	for _, v := range vs {
		r, ok := v.(*value.Record)
		if !ok {
			return fmt.Errorf("JOIN returned %v, not a record", v)
		}
		id, _ := r.Get("Id")
		dept, _ := r.Get("Dept")
		name, _ := r.Get("DName")
		i, ok := id.(value.Int)
		if !ok || seen[int64(i)] || name != value.String(fmt.Sprint("dept", dept)) {
			return fmt.Errorf("JOIN returned %v: a repeated Id or a pair that does not join", v)
		}
		seen[int64(i)] = true
	}
	return nil
}

// TestKeptRelationsBounded: 2 000 JOINs at distinct query types — each a
// different set of the left members' labels — match the same two extents,
// so each would keep a relation of its own. The live heap grows by less
// than the store's members take. (That the generation keeps values of no
// more members than the Set is checked in internal/index, by
// TestKeepIsBounded.)
func TestKeptRelationsBounded(t *testing.T) {
	const labels, joins = 11, 2000
	srv, _ := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "bound.log"), Config{})
	fields := []types.Field{{Label: "Id", Type: types.Int}, {Label: "Dept", Type: types.Int}}
	for j := 0; j < labels; j++ {
		fields = append(fields, types.Field{Label: fmt.Sprint("F", j), Type: types.Int})
	}
	left, right := types.NewRecord(fields...), types.MustParse("{Dept: Int, DName: String}")
	var names []string
	var vals []value.Value
	var decl []types.Type
	for i := int64(0); i < 256; i++ {
		r := value.Rec("Id", value.Int(i), "Dept", value.Int(i%8))
		for j := 0; j < labels; j++ {
			r.Set(fmt.Sprint("F", j), value.Int(i*int64(j)))
		}
		names, vals, decl = append(names, fmt.Sprintf("l%03d", i)), append(vals, r), append(decl, left)
	}
	for i := int64(0); i < 8; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
		vals = append(vals, value.Rec("Dept", value.Int(i), "DName", value.String(fmt.Sprint("dept", i))))
		decl = append(decl, right)
	}
	before := liveHeap()
	commitRoots(t, srv, names, vals, decl)
	vals = nil
	store := liveHeap() - before

	// queries[i] is the record type over the left labels set in i+1.
	queries := make([][][]byte, joins)
	for i := range queries {
		var fs []types.Field
		for j, f := range fields {
			if (i+1)&(1<<j) != 0 {
				fs = append(fs, f)
			}
		}
		queries[i] = typeFields(t, types.NewRecord(fs...), right)
	}
	sess := &session{srv: srv}
	for _, q := range queries { // intern the types and fill the generation's memo
		srv.handleExplain(sess, q[:1])
	}
	srv.handleJoin(sess, queries[0]) // store the members' value bytes
	before = liveHeap()
	idx := srv.state.Load().idx
	for i, q := range queries {
		if op, rows := srv.handleJoin(sess, q); op != wire.OpValues || len(rows) != 2 {
			t.Fatalf("JOIN %d: %#x with %d fields", i, op, len(rows))
		}
	}
	grew := liveHeap() - before
	runtime.KeepAlive(queries)
	t.Logf("%d JOINs at distinct types: the live heap grew by %d B; the store's %d members take %d B", joins, grew, idx.Len(), store)
	if grew >= store {
		t.Errorf("%d JOINs at distinct types grew the live heap by %d B, want less than the %d B the store's members take", joins, grew, store)
	}
}

// liveHeap is the bytes of live heap objects, after collecting twice so
// that sync.Pool's victims are gone too.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
