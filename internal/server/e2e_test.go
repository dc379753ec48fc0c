package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/relation"
	"dbpl/internal/server"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// harness boots a server over a store at path on a throwaway port and
// tears it down with the graceful path.
type harness struct {
	t     testing.TB
	path  string
	store *intrinsic.Store
	srv   *server.Server
	reg   *telemetry.Registry // the server's metrics, as STATS serves them
	addr  string
	done  chan error
	once  sync.Once
}

func boot(t testing.TB, path string) *harness {
	return bootCfg(t, path, nil, server.Config{})
}

// stop drains the server and closes the store; idempotent (tests that
// stop explicitly also have it registered as a cleanup).
func (h *harness) stop() {
	h.t.Helper()
	h.once.Do(h.stopOnce)
}

func (h *harness) stopOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.t.Errorf("Shutdown: %v", err)
	}
	select {
	case err := <-h.done:
		if err != nil && !errors.Is(err, server.ErrServerClosed) {
			h.t.Errorf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		h.t.Error("Serve did not return after Shutdown")
	}
	h.store.Close()
}

func dial(t testing.TB, h *harness, opts *client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(h.addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var (
	personT   = types.MustParse("{Name: String}")
	employeeT = types.MustParse("{Name: String, Empno: Int, Dept: String}")
	deptT     = types.MustParse("{Dept: String, Floor: Int}")
	managerT  = types.MustParse("{Name: String, Empno: Int, Dept: String, Reports: Int}")
)

func emp(name string, no int64, dept string) value.Value {
	return value.Rec("Name", value.String(name), "Empno", value.Int(no), "Dept", value.String(dept))
}

func namesOf(ps []client.Packed) []string {
	var out []string
	for _, p := range ps {
		if r, ok := p.Value.(*value.Record); ok {
			if n, ok := r.Get("Name"); ok {
				out = append(out, string(n.(value.String)))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestE2ERoundTrips drives the full verb set through the client package:
// PUT/GET with subtype-driven extraction, DELETE, NAMES, JOIN, and the
// error taxonomy for the common misuses.
func TestE2ERoundTrips(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "e2e.log"))
	c := dial(t, h, nil)

	if err := c.Put("p1", value.Rec("Name", value.String("P1")), personT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("e2", emp("E2", 2, "Manuf"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("d1", value.Rec("Dept", value.String("Sales"), "Floor", value.Int(3)), deptT); err != nil {
		t.Fatal(err)
	}

	// The paper's containment: Get[Employee] ⊆ Get[Person].
	emps, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(emps); !reflect.DeepEqual(got, []string{"E1", "E2"}) {
		t.Errorf("Get[Employee] = %v", got)
	}
	people, err := c.Get(personT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(people); !reflect.DeepEqual(got, []string{"E1", "E2", "P1"}) {
		t.Errorf("Get[Person] = %v", got)
	}
	// Witnesses are the declared types.
	for _, p := range emps {
		if !types.Equal(p.Witness, employeeT) {
			t.Errorf("witness = %s, want %s", p.Witness, employeeT)
		}
	}

	// GetExpr parses the concrete syntax client-side.
	byExpr, err := c.GetExpr("{Name: String, Empno: Int, Dept: String}")
	if err != nil {
		t.Fatal(err)
	}
	if len(byExpr) != len(emps) {
		t.Errorf("GetExpr = %d results, want %d", len(byExpr), len(emps))
	}

	// JOIN of the employee and department extents (Figure 1 remotely).
	joined, err := c.Join(employeeT, deptT)
	if err != nil {
		t.Fatal(err)
	}
	foundJoined := false
	for _, m := range joined {
		r, ok := m.(*value.Record)
		if !ok {
			continue
		}
		if n, _ := r.Get("Name"); n != nil && value.Equal(n, value.String("E1")) {
			if f, _ := r.Get("Floor"); f != nil && value.Equal(f, value.Int(3)) {
				foundJoined = true
			}
		}
	}
	if !foundJoined {
		t.Errorf("JOIN missing {Name=E1, ..., Floor=3}; got %v", joined)
	}

	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"d1", "e1", "e2", "p1"}) {
		t.Errorf("Names = %v", names)
	}

	existed, err := c.Delete("p1")
	if err != nil || !existed {
		t.Fatalf("Delete(p1) = %v, %v", existed, err)
	}
	existed, err = c.Delete("p1")
	if err != nil || existed {
		t.Fatalf("second Delete(p1) = %v, %v", existed, err)
	}

	// Taxonomy: misuse maps to typed wire errors.
	if err := c.Put("bad", value.Int(1), types.String); !errors.Is(err, wire.ErrNotConforming) {
		t.Errorf("non-conforming PUT: %v", err)
	}
	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, client.ErrDone) {
		t.Errorf("double commit: %v", err)
	}
}

// TestE2ETransactions checks session isolation end to end: buffered
// writes are visible to the session (read-your-writes), invisible to
// other clients until COMMIT, and discarded by ABORT.
func TestE2ETransactions(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "txn.log"))
	c := dial(t, h, nil)

	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}

	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("e2", emp("E2", 2, "Manuf"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("e1"); err != nil {
		t.Fatal(err)
	}

	// The session sees its own writes...
	inTxn, err := s.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(inTxn); !reflect.DeepEqual(got, []string{"E2"}) {
		t.Errorf("session view = %v, want [E2]", got)
	}
	sessionNames, err := s.Names()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sessionNames, []string{"e2"}) {
		t.Errorf("session names = %v", sessionNames)
	}
	// ...while outside observers still see the committed state.
	outside, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(outside); !reflect.DeepEqual(got, []string{"E1"}) {
		t.Errorf("outside view during txn = %v, want [E1]", got)
	}

	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(after); !reflect.DeepEqual(got, []string{"E2"}) {
		t.Errorf("after commit = %v, want [E2]", got)
	}

	// ABORT discards.
	s2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("e3", emp("E3", 3, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := s2.Abort(); err != nil {
		t.Fatal(err)
	}
	final, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(final); !reflect.DeepEqual(got, []string{"E2"}) {
		t.Errorf("after abort = %v, want [E2]", got)
	}
}

// TestE2ETxnReadsWhatCommitPublishes: a transaction's GET and JOIN return
// what the same requests return right after its COMMIT — the same values
// in the same order: the pinned extents minus the roots the session
// wrote, then each written name's last PUT in buffer order. The store
// binds b, a and d, so insertion order is not name order; the transaction
// rebinds b and puts c. NAMES stays sorted.
func TestE2ETxnReadsWhatCommitPublishes(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "txnorder.log"))
	c := dial(t, h, nil)
	for i, name := range []string{"b", "a", "d"} {
		if err := c.Put(name, emp(name, int64(i), "Sales"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put("sales", value.Rec("Dept", value.String("Sales"), "Floor", value.Int(3)), deptT); err != nil {
		t.Fatal(err)
	}

	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", emp("b2", 7, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", emp("c", 8, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	inGet, err := s.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	inJoin, err := s.Join(employeeT, deptT)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := s.Names(); err != nil || !reflect.DeepEqual(names, []string{"a", "b", "c", "d", "sales"}) {
		t.Errorf("session NAMES = %v, %v; want sorted [a b c d sales]", names, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	afterGet, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	afterJoin, err := c.Join(employeeT, deptT)
	if err != nil {
		t.Fatal(err)
	}

	var order []string
	for _, p := range afterGet {
		n, _ := p.Value.(*value.Record).Get("Name")
		order = append(order, string(n.(value.String)))
	}
	if want := []string{"a", "d", "b2", "c"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("GET after COMMIT = %v, want insertion order %v", order, want)
	}
	if len(inGet) != len(afterGet) {
		t.Fatalf("GET in the transaction = %d values, after COMMIT %d", len(inGet), len(afterGet))
	}
	for i := range inGet {
		if !value.Equal(inGet[i].Value, afterGet[i].Value) || !types.Equal(inGet[i].Witness, afterGet[i].Witness) {
			t.Errorf("GET [%d]: in the transaction %s : %s, after COMMIT %s : %s",
				i, inGet[i].Value, inGet[i].Witness, afterGet[i].Value, afterGet[i].Witness)
		}
	}
	if len(inJoin) != len(afterJoin) || len(afterJoin) != len(afterGet) {
		t.Fatalf("JOIN in the transaction = %d values, after COMMIT %d; want %d", len(inJoin), len(afterJoin), len(afterGet))
	}
	for i := range inJoin {
		if !value.Equal(inJoin[i], afterJoin[i]) {
			t.Errorf("JOIN [%d]: in the transaction %s, after COMMIT %s", i, inJoin[i], afterJoin[i])
		}
	}
}

// TestE2EJoinOverNonCochainExtent: an extent is not a cochain in general.
// Here each side binds one root whose value is below another's and two
// roots with equal values under different names. JOIN answers what
// relation.Join answers over the extents folded through Insert, and
// EXPLAIN JOIN counts the maximal members only.
func TestE2EJoinOverNonCochainExtent(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "noncochain.log"))
	c := dial(t, h, nil)
	phoned := emp("E1", 1, "Lab").(*value.Record).Copy()
	phoned.Set("Phone", value.Int(5551))
	lab := value.Rec("Dept", value.String("Lab"), "Floor", value.Int(3))
	labA := value.Rec("Dept", value.String("Lab"), "Floor", value.Int(3), "Bldg", value.String("A"))
	ops := value.Rec("Dept", value.String("Ops"), "Floor", value.Int(1))
	for _, b := range []struct {
		name string
		v    value.Value
		t    types.Type
	}{
		{"e1", emp("E1", 1, "Lab"), employeeT},
		{"e1phone", phoned, employeeT}, // e1 ⊑ e1phone
		{"e2", emp("E2", 2, "Ops"), employeeT},
		{"e2twin", emp("E2", 2, "Ops"), employeeT},
		{"e3", emp("E3", 3, "Lab"), employeeT},
		{"lab", lab, deptT},
		{"labA", labA, deptT}, // lab ⊑ labA
		{"ops", ops, deptT},
		{"opsTwin", ops, deptT},
	} {
		if err := c.Put(b.name, b.v, b.t); err != nil {
			t.Fatal(err)
		}
	}
	fold := func(ty types.Type) *relation.Relation {
		ps, err := c.Get(ty)
		if err != nil {
			t.Fatal(err)
		}
		r := relation.New()
		for _, p := range ps {
			r.Insert(p.Value)
		}
		return r
	}
	keys := func(vs []value.Value) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = value.Key(v)
		}
		sort.Strings(out)
		return out
	}
	want := relation.Join(fold(employeeT), fold(deptT)).Members()
	got, err := c.Join(employeeT, deptT)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || !reflect.DeepEqual(keys(got), keys(want)) {
		t.Errorf("JOIN = %v, want the 3 members of the folded join %v", got, want)
	}
	const plan = "join left=3 right=2 pairs=3 attr=Dept build=right"
	if jplan, err := c.ExplainJoin(employeeT, deptT); err != nil || jplan != plan {
		t.Errorf("EXPLAIN JOIN = (%q, %v), want %q", jplan, err, plan)
	}
	// Every root is declared at employeeT or deptT, so every member ships
	// at their meet.
	meet, _ := types.Meet(employeeT, deptT)
	if vals, wits := rawJoin(t, h, employeeT, deptT); len(vals) != 3 || !allAt(wits, meet) {
		t.Errorf("JOIN ships %d members at %v, want 3 at %s", len(vals), wits, meet)
	}
}

// rawJoin sends one JOIN on a connection of its own and decodes the reply
// as the server framed it: each member, and the witness it ships at.
func rawJoin(t *testing.T, h *harness, t1, t2 types.Type) ([]value.Value, []types.Type) {
	t.Helper()
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f1, err := wire.MarshalType(t1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := wire.MarshalType(t2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, 0, wire.OpJoin, f1, f2); err != nil {
		t.Fatal(err)
	}
	op, fields, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != wire.OpValues {
		t.Fatalf("JOIN answered %s: %v", wire.OpName(op), wire.DecodeError(fields))
	}
	var vals []value.Value
	var wits []types.Type
	if err := codec.DecodeReply(fields, func(_ int, v value.Value, w types.Type) {
		vals, wits = append(vals, v), append(wits, w)
	}); err != nil {
		t.Fatal(err)
	}
	return vals, wits
}

// allAt reports whether every witness of wits equals w.
func allAt(wits []types.Type, w types.Type) bool {
	for _, x := range wits {
		if !types.Equal(x, w) {
			return false
		}
	}
	return true
}

// TestE2EJoinTypeValuedTwins: two roots bound to equal records with a
// type-valued field are one JOIN member. Each bound value decodes with its
// own type value, so only an order that compares type values by structure,
// as Equal does, sees the two as duplicates.
func TestE2EJoinTypeValuedTwins(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "typetwins.log"))
	c := dial(t, h, nil)
	typedT := types.MustParse("{N: Int, T: Type}")
	namedT := types.MustParse("{N: Int, M: String}")
	for _, b := range []struct {
		name string
		v    value.Value
		t    types.Type
	}{
		{"t1", value.Rec("N", value.Int(1), "T", value.NewTypeVal(types.Int)), typedT},
		{"t2", value.Rec("N", value.Int(1), "T", value.NewTypeVal(types.Int)), typedT},
		{"m", value.Rec("N", value.Int(1), "M", value.String("m")), namedT},
	} {
		if err := c.Put(b.name, b.v, b.t); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Join(typedT, namedT)
	if err != nil {
		t.Fatal(err)
	}
	want := value.Rec("N", value.Int(1), "T", value.NewTypeVal(types.Int), "M", value.String("m"))
	if len(got) != 1 || !value.Equal(got[0], want) {
		t.Errorf("JOIN = %v, want [%s]", got, want)
	}
	const plan = "join left=1 right=1 pairs=1"
	if jplan, err := c.ExplainJoin(typedT, namedT); err != nil || jplan != plan {
		t.Errorf("EXPLAIN JOIN = (%q, %v), want %q", jplan, err, plan)
	}
	meet, _ := types.Meet(typedT, namedT)
	if vals, wits := rawJoin(t, h, typedT, namedT); len(vals) != 1 || !allAt(wits, meet) {
		t.Errorf("JOIN ships %d members at %v, want 1 at %s", len(vals), wits, meet)
	}
}

// TestE2EJoinFilledBottomShipsTypeOf: a member whose join filled a ⊥
// need not be of the witnesses' meet, and then ships at its most specific
// type. x = {A = ⊥, B = 1} is declared {A: Bottom, B: Int} and y = {A = 2}
// {A: Int}; x ⊔ y = {A = 2, B = 1} is not of the meet {A: Bottom, B: Int}.
func TestE2EJoinFilledBottomShipsTypeOf(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "bottom.log"))
	c := dial(t, h, nil)
	if err := c.Put("x", value.Rec("A", value.Bottom, "B", value.Int(1)), types.MustParse("{A: Bottom, B: Int}")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("y", value.Rec("A", value.Int(2)), types.MustParse("{A: Int}")); err != nil {
		t.Fatal(err)
	}
	vals, wits := rawJoin(t, h, types.MustParse("{B: Int}"), types.MustParse("{A: Int}"))
	want := value.Rec("A", value.Int(2), "B", value.Int(1))
	if len(vals) != 1 || !value.Equal(vals[0], want) || !types.Equal(wits[0], value.TypeOf(want)) {
		t.Errorf("JOIN = %v at %v, want [%s] at %s", vals, wits, want, value.TypeOf(want))
	}
}

// TestE2EJoinCyclicValues: JOIN terminates on cyclic values. Two roots
// declared at {a: Int} are cyclic: r = {a = 1, self = r} and s = {a = 1,
// b = 2, self = s}. Coinductively r ⊑ s, so the extent keeps s alone, and
// s ⊔ s closes the cycle of the record it builds. JOIN answers at the
// declared witnesses' meet, EXPLAIN JOIN plans it, and the server stays
// healthy.
func TestE2EJoinCyclicValues(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "cyclic.log"))
	c := dial(t, h, nil)
	aT := types.MustParse("{a: Int}")
	r := value.Rec("a", value.Int(1))
	r.Set("self", r)
	s := value.Rec("a", value.Int(1), "b", value.Int(2))
	s.Set("self", s)
	for name, v := range map[string]value.Value{"r": r, "s": s} {
		if err := c.Put(name, v, aT); err != nil {
			t.Fatal(err)
		}
	}
	vals, wits := rawJoin(t, h, aT, aT)
	if len(vals) != 1 || !allAt(wits, aT) {
		t.Fatalf("JOIN ships %d members at %v, want 1 at %s", len(vals), wits, aT)
	}
	m := vals[0].(*value.Record)
	self, _ := m.Get("self")
	if _, ok := self.(*value.Record); !ok || !value.Equal(m.MustGet("a"), value.Int(1)) || !value.Equal(m.MustGet("b"), value.Int(2)) {
		t.Errorf("JOIN = a record without a = 1, b = 2 and a record self")
	}
	const plan = "join left=1 right=1 pairs=1"
	if jplan, err := c.ExplainJoin(aT, aT); err != nil || jplan != plan {
		t.Errorf("EXPLAIN JOIN = (%q, %v), want %q", jplan, err, plan)
	}
	if hl, err := c.Health(); err != nil || hl.Poisoned || hl.Roots != 2 {
		t.Errorf("HEALTH after the cyclic JOIN = (%+v, %v)", hl, err)
	}
}

// replyNames lists the Name fields of a GET reply in reply order.
func replyNames(ps []client.Packed) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		n, _ := p.Value.(*value.Record).Get("Name")
		out[i] = string(n.(value.String))
	}
	return out
}

// TestE2ETxnViewIsolatedFromLaterCommits: a transaction's view of an
// extent stays its own while another client commits into the same extent.
// e1–e3 leave the extent spare capacity; A buffers x and reads, B
// autocommits y, and A reads again. A sees [e1 e2 e3 x] both times, B
// sees [e1 e2 e3 y], and after A's COMMIT both see [e1 e2 e3 y x]. A view
// that appended x into the extent array B's commit appends to would show
// A y instead.
func TestE2ETxnViewIsolatedFromLaterCommits(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "txnview.log"))
	a, b := dial(t, h, nil), dial(t, h, nil)
	for i, name := range []string{"e1", "e2", "e3"} {
		if err := a.Put(name, emp(name, int64(i), "Sales"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	get := func(who string, g interface {
		Get(types.Type) ([]client.Packed, error)
	}, want ...string) {
		t.Helper()
		got, err := g.Get(employeeT)
		if err != nil {
			t.Fatal(err)
		}
		if names := replyNames(got); !reflect.DeepEqual(names, want) {
			t.Errorf("%s GET = %v, want %v", who, names, want)
		}
	}
	s, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("x", emp("x", 9, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	get("A before B's commit", s, "e1", "e2", "e3", "x")
	if err := b.Put("y", emp("y", 8, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	get("A after B's commit", s, "e1", "e2", "e3", "x")
	get("B", b, "e1", "e2", "e3", "y")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	get("A after COMMIT", a, "e1", "e2", "e3", "y", "x")
	get("B after A's COMMIT", b, "e1", "e2", "e3", "y", "x")
}

// TestE2EReconnectAfterRestart mirrors the crash-matrix style of the
// persistence tests at the system level: commit through one server
// incarnation, shut it down, boot a second on the same log, and the
// client — redialing dead pool connections transparently — sees exactly
// the committed state. Uncommitted transactional writes die with the
// server.
func TestE2EReconnectAfterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "restart.log")
	h1 := boot(t, path)
	c := dial(t, h1, &client.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})

	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	// A transaction left open across the restart must not survive.
	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ghost", emp("G", 9, "Ghost"), employeeT); err != nil {
		t.Fatal(err)
	}

	h1.stop()

	// Second incarnation on the same log, new port.
	h2 := boot(t, path)
	c2 := dial(t, h2, nil)
	got, err := c2.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if names := namesOf(got); !reflect.DeepEqual(names, []string{"E1"}) {
		t.Errorf("recovered state = %v, want [E1]", names)
	}

	// The old client's pooled conn is dead; against the old address every
	// request now fails with a dial or transport error, not a hang.
	if _, err := c.Get(employeeT); err == nil {
		t.Error("Get against a stopped server succeeded")
	}
}

// TestE2EShutdownRefusesNewWork: after Shutdown begins, new connections
// are refused while the drain completes, and the log reopens at exactly
// the committed state.
func TestE2EShutdownRefusesNewWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.log")
	h := boot(t, path)
	c := dial(t, h, nil)
	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	h.stop()

	if _, err := client.Dial(h.addr, &client.Options{DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Error("Dial succeeded after shutdown")
	}

	st, err := intrinsic.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, ok := st.Root("e1")
	if !ok {
		t.Fatal("root e1 missing after shutdown")
	}
	if n, _ := r.Value.(*value.Record).Get("Name"); !value.Equal(n, value.String("E1")) {
		t.Errorf("recovered e1 = %s", r.Value)
	}
}

// TestE2EIdleRestartLeavesLogIntact: Shutdown appends nothing. After one
// PUT and a stop, a restart that only serves a GET, and is shut down
// twice, leaves the log byte-identical.
func TestE2EIdleRestartLeavesLogIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idle.log")
	h1 := boot(t, path)
	if err := dial(t, h1, nil).Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	h1.stop()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	h2 := boot(t, path)
	if got, err := dial(t, h2, nil).Get(employeeT); err != nil || len(got) != 1 {
		t.Fatalf("GET after restart = %d values, %v; want 1", len(got), err)
	}
	if err := h2.srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	h2.stop() // the second Shutdown, then the store's close
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("an idle restart changed the log: %d bytes before, %d after", len(before), len(after))
	}
}

// TestE2EPipelining exercises the client's FIFO pipelining: many
// concurrent requests multiplexed over a single pooled connection all
// complete and match their own responses.
func TestE2EPipelining(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "pipe.log"))
	c := dial(t, h, &client.Options{PoolSize: 1})
	for i := int64(0); i < 8; i++ {
		if err := c.Put("e"+string(rune('0'+i)), emp("E", i, "D"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 16
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			ps, err := c.Get(employeeT)
			if err == nil && len(ps) != 8 {
				err = errors.New("wrong result size")
			}
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
