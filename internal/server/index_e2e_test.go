package server_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbpl/internal/server/wire"
	"dbpl/internal/value"
)

// TestE2EIndexLifecycle drives the index-administration opcodes through
// the client: create (idempotent), queries stay correct while the index
// exists, EXPLAIN gives exact GET counts and a JOIN plan, drop (reports
// existence).
func TestE2EIndexLifecycle(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "idx.log"))
	c := dial(t, h, nil)

	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("emp%d", i)
		if err := c.Put(name, emp(name, int64(i), "Lab"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}

	created, err := c.CreateIndex("Empno")
	if err != nil || !created {
		t.Fatalf("CreateIndex = (%v, %v), want (true, nil)", created, err)
	}
	if again, err := c.CreateIndex("Empno"); err != nil || again {
		t.Fatalf("second CreateIndex = (%v, %v), want (false, nil)", again, err)
	}

	// The index must be invisible to results: same members, same order.
	after, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(namesOf(before), namesOf(after)) {
		t.Errorf("GET diverged after CreateIndex: %v vs %v", namesOf(before), namesOf(after))
	}
	// Writes keep maintaining it.
	if err := c.Put("emp8", emp("emp8", 8, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("emp0"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Errorf("after put+delete: %d members, want 8", len(got))
	}

	// EXPLAIN counts exactly what GET returns: a conforming subtype adds a
	// matched extent, a non-conforming root only a member type.
	if err := c.Put("mgr", value.Rec("Name", value.String("mgr"), "Empno", value.Int(99),
		"Dept", value.String("Lab"), "Reports", value.Int(3)), managerT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("lab", value.Rec("Dept", value.String("Lab"), "Floor", value.Int(2)), deptT); err != nil {
		t.Fatal(err)
	}
	if got, err = c.Get(employeeT); err != nil {
		t.Fatal(err)
	}
	plan, err := c.ExplainGet(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if n, nTypes, matched, result := explainCounts(t, plan); n != 10 || nTypes != 3 || matched != 2 || result != len(got) {
		t.Errorf("ExplainGet = %q, want n=10 types=3 matched=2 result=%d", plan, len(got))
	}
	jplan, err := c.ExplainJoin(employeeT, deptT)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(jplan, "join left=") || !strings.Contains(jplan, " pairs=") {
		t.Errorf("ExplainJoin %q is not a join plan with exact counts", jplan)
	}

	existed, err := c.DropIndex("Empno")
	if err != nil || !existed {
		t.Fatalf("DropIndex = (%v, %v), want (true, nil)", existed, err)
	}
	if again, err := c.DropIndex("Empno"); err != nil || again {
		t.Fatalf("second DropIndex = (%v, %v), want (false, nil)", again, err)
	}
}

// TestE2EIndexDDLRefusedInTxn: index DDL is not transactional; inside
// BEGIN it must be refused with the txn code and leave no definition.
func TestE2EIndexDDLRefusedInTxn(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "idxtxn.log"))

	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	roundTrip := func(op byte, fields ...[]byte) (byte, [][]byte) {
		t.Helper()
		if err := wire.WriteFrame(raw, 0, op, fields...); err != nil {
			t.Fatal(err)
		}
		respOp, respFields, err := wire.ReadFrame(raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		return respOp, respFields
	}
	if op, _ := roundTrip(wire.OpBegin); op != wire.OpOK {
		t.Fatalf("BEGIN: op=%#x", op)
	}
	for _, op := range []byte{wire.OpCreateIndex, wire.OpDropIndex} {
		respOp, respFields := roundTrip(op, []byte("Empno"))
		if respOp != wire.OpError {
			t.Fatalf("%s inside txn: op=%#x, want OpError", wire.OpName(op), respOp)
		}
		if err := wire.DecodeError(respFields); !errors.Is(err, wire.ErrTxn) {
			t.Errorf("%s inside txn: %v, want ErrTxn", wire.OpName(op), err)
		}
	}
	if op, _ := roundTrip(wire.OpAbort); op != wire.OpOK {
		t.Fatalf("ABORT: op=%#x", op)
	}

	// Nothing leaked outside the refused transaction.
	c := dial(t, h, nil)
	if existed, err := c.DropIndex("Empno"); err != nil || existed {
		t.Errorf("DropIndex after refused DDL = (%v, %v), want (false, nil)", existed, err)
	}
}

// TestE2EIndexSurvivesRestart: the definition is durable (an 'X' record
// in the commit group) and the index rebuilds from the committed roots on
// reopen — so a restarted server still has it, with correct results.
func TestE2EIndexSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idxdur.log")
	h := boot(t, path)
	c := dial(t, h, nil)
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if created, err := c.CreateIndex("Dept"); err != nil || !created {
		t.Fatalf("CreateIndex = (%v, %v)", created, err)
	}
	if err := c.Put("bob", emp("Bob", 2, "Lab"), employeeT); err != nil {
		t.Fatal(err)
	}
	c.Close()
	h.stop()

	h2 := boot(t, path)
	c2 := dial(t, h2, nil)
	// The definition survived: re-declaring reports "already exists".
	if created, err := c2.CreateIndex("Dept"); err != nil || created {
		t.Fatalf("CreateIndex after restart = (%v, %v), want (false, nil)", created, err)
	}
	got, err := c2.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Alice", "Bob"}; !reflect.DeepEqual(namesOf(got), want) {
		t.Errorf("GET after restart = %v, want %v", namesOf(got), want)
	}
}

// explainCounts parses EXPLAIN's GET rendering.
func explainCounts(t *testing.T, plan string) (n, nTypes, matched, result int) {
	t.Helper()
	if _, err := fmt.Sscanf(plan, "get n=%d types=%d matched=%d result=%d", &n, &nTypes, &matched, &result); err != nil {
		t.Fatalf("EXPLAIN %q: %v", plan, err)
	}
	return n, nTypes, matched, result
}

// TestExplainInTransactionCountsTheOverlay: EXPLAIN inside a transaction
// counts the session's own view — the pinned snapshot plus its buffered
// writes — exactly as the session's GET returns it, for a GET and for a
// JOIN; after ABORT the buffered root is gone from the count.
func TestExplainInTransactionCountsTheOverlay(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "txnexplain.log"))
	c := dial(t, h, nil)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("emp%d", i)
		if err := c.Put(name, emp(name, int64(i), "Lab"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range []string{"Lab", "Ops"} {
		if err := c.Put(d, value.Rec("Dept", value.String(d), "Floor", value.Int(int64(i))), deptT); err != nil {
			t.Fatal(err)
		}
	}
	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three Lab employees ⋈ the Lab and Ops departments: partitioned on
	// Dept, the three Lab pairs are the only ones tried.
	const joinBefore = "join left=3 right=2 pairs=3 attr=Dept build=right"
	if jplan, err := s.ExplainJoin(employeeT, deptT); err != nil || jplan != joinBefore {
		t.Fatalf("EXPLAIN JOIN in the transaction = (%q, %v), want %q", jplan, err, joinBefore)
	}
	if err := s.Put("emp9", emp("emp9", 9, "Lab"), employeeT); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.ExplainGet(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if n, _, matched, result := explainCounts(t, plan); result != len(got) || result != 4 || n != 6 || matched != 1 {
		t.Errorf("EXPLAIN in the transaction = %q, want n=6 matched=1 result=%d (the session's GET)", plan, len(got))
	}
	// The buffered Lab employee adds one member on the left and one pair.
	if jplan, err := s.ExplainJoin(employeeT, deptT); err != nil || jplan != "join left=4 right=2 pairs=4 attr=Dept build=right" {
		t.Errorf("EXPLAIN JOIN after the buffered PUT = (%q, %v), want left=4 pairs=4", jplan, err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	plan, err = c.ExplainGet(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, result := explainCounts(t, plan); result != len(got)-1 {
		t.Errorf("EXPLAIN after ABORT = %q, want result=%d", plan, len(got)-1)
	}
	if jplan, err := c.ExplainJoin(employeeT, deptT); err != nil || jplan != joinBefore {
		t.Errorf("EXPLAIN JOIN after ABORT = (%q, %v), want %q", jplan, err, joinBefore)
	}
}

// TestStatsIndexCounters: the index maintenance work surfaces in the
// STATS snapshot, and the series retired with the GET access-path
// planner, the JOIN cost model and the published index definitions do
// not. Uses pre-resolved series only.
func TestStatsIndexCounters(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "idxstats.log"))
	c := dial(t, h, nil)

	if created, err := c.CreateIndex("Empno"); err != nil || !created {
		t.Fatalf("CreateIndex = (%v, %v)", created, err)
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("emp%d", i)
		if err := c.Put(name, emp(name, int64(i), "Lab"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	const gets = 5
	for i := 0; i < gets; i++ {
		if _, err := c.Get(employeeT); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Join(employeeT, deptT); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := snap.Counter(`dbpl_server_requests_total{op="GET"}`); n != gets {
		t.Errorf(`requests_total{op="GET"} = %d, want %d`, n, gets)
	}
	for _, path := range []string{"extent", "index", "scan"} {
		label := `{path="` + path + `"}`
		if _, ok := snap.Counter("dbpl_plan_chosen_total" + label); ok {
			t.Errorf("dbpl_plan_chosen_total%s is registered; GET has one path", label)
		}
		for _, h := range []string{"dbpl_plan_path_seconds", "dbpl_plan_path_items"} {
			if _, ok := snap.Histogram(h + label); ok {
				t.Errorf("%s%s is registered; GET has one path", h, label)
			}
		}
	}
	if _, ok := snap.Histogram("dbpl_plan_selectivity_ppm"); ok {
		t.Error("dbpl_plan_selectivity_ppm is registered; nothing estimates selectivity")
	}
	for _, path := range []string{"nested", "partition"} {
		if _, ok := snap.Counter(`dbpl_plan_join_total{path="` + path + `"}`); ok {
			t.Errorf(`dbpl_plan_join_total{path=%q} is registered; EXPLAIN JOIN prints the exact counts`, path)
		}
	}
	if touched, _ := snap.Counter("dbpl_index_entries_touched_total"); touched != 6 {
		t.Errorf("index_entries_touched_total = %d, want 6 (each PUT adds one extent entry)", touched)
	}
	if _, ok := snap.Gauge("dbpl_index_defs"); ok {
		t.Error("dbpl_index_defs is registered; the definitions live in the log only")
	}
	if extents, _ := snap.Gauge("dbpl_index_extents"); extents != 1 {
		t.Errorf("index_extents gauge = %d, want 1 (every member the same type)", extents)
	}
	// The new opcodes have their own pre-resolved request series.
	if n, _ := snap.Counter(`dbpl_server_requests_total{op="CREATEINDEX"}`); n != 1 {
		t.Errorf(`requests_total{op="CREATEINDEX"} = %d, want 1`, n)
	}
}
