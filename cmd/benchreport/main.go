// Command benchreport regenerates every experiment in DESIGN.md §4 and
// prints paper-style tables: E1 is the paper's Figure 1 verbatim; E2–E10
// operationalize the paper's qualitative claims with measured numbers.
// EXPERIMENTS.md records a reference run with commentary.
//
// Usage:
//
//	benchreport [-quick] [-exp E2,E3]
//
// An unknown -exp id exits with status 2 and names the valid ids.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/client"
	"dbpl/internal/class"
	"dbpl/internal/core"
	"dbpl/internal/dynamic"
	"dbpl/internal/fd"
	"dbpl/internal/index"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/persist/replicating"
	"dbpl/internal/persist/snapshot"
	"dbpl/internal/plan"
	"dbpl/internal/relation"
	"dbpl/internal/server"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

var (
	quick   = flag.Bool("quick", false, "smaller sweeps for a fast run")
	expFlag = flag.String("exp", "", "comma-separated experiments to run (default: all)")
)

// experiments lists every section in report order; -exp selects by id.
var experiments = []struct {
	id  string
	run func()
}{
	{"E1", e1Figure1},
	{"E2", e2GetStrategies},
	{"E3", e3BillOfMaterials},
	{"E4", e4Persistence},
	{"E5", e5SchemaEvolution},
	{"E6", e6KeysVsCochains},
	{"E7", e7TypeComputation},
	{"E8", e8FunctionalDependencies},
	{"E9", e9DerivedExtents},
	{"E10", e10TypeAsRelation},
	{"E11", e11InternedTypes},
	{"E16", e16AccessPaths},
	{"E17", e17Replication},
	{"E18", e18GroupCommit},
	{"E19", e19Failover},
}

func main() {
	flag.Parse()
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "benchreport: unknown experiment %q (valid: %s)\n",
				id, strings.Join(ids, ", "))
			os.Exit(2)
		}
		want[id] = true
	}

	fmt.Println("dbpl experiment report — Buneman & Atkinson, SIGMOD 1986 reproduction")
	fmt.Println("=====================================================================")
	for _, e := range experiments {
		if len(want) == 0 || want[e.id] {
			e.run()
		}
	}
}

func header(id, title, claim string) {
	fmt.Printf("\n%s — %s\n", id, title)
	fmt.Println(strings.Repeat("-", 69))
	fmt.Printf("paper: %s\n\n", claim)
}

// timeIt runs f repeatedly for at least minDur and returns the per-call time.
func timeIt(f func()) time.Duration {
	minDur := 200 * time.Millisecond
	if *quick {
		minDur = 20 * time.Millisecond
	}
	f() // warm up
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		el := time.Since(start)
		if el >= minDur || n > 1<<24 {
			return el / time.Duration(n)
		}
		n *= 2
	}
}

func sizes(full []int) []int {
	if *quick && len(full) > 2 {
		return full[:2]
	}
	return full
}

// ---------------------------------------------------------------------------

func e1Figure1() {
	header("E1", "Figure 1: a join of generalized relations",
		`the join operation "is a generalization of the natural join"`)
	r1, r2 := relation.Figure1R1(), relation.Figure1R2()
	got := relation.Join(r1, r2)
	fmt.Println("R1 =", r1)
	fmt.Println("R2 =", r2)
	fmt.Println("R1 ⋈ R2 =", got)
	if relation.Equal(got, relation.Figure1Result()) {
		fmt.Println("\n✓ exactly the paper's published result (4 tuples, cochain)")
	} else {
		fmt.Println("\n✗ MISMATCH with the published figure")
	}
	per := timeIt(func() { relation.Join(r1, r2) })
	fmt.Printf("join cost: %v per evaluation\n", per)

	// Ablation X9: all-pairs vs hash-partitioned join on a scaled-up
	// Figure 1 (same shape: employees with partial tuples ⋈ departments).
	emp, dept := relation.New(), relation.New()
	n := 1000
	if *quick {
		n = 200
	}
	for i := 0; i < n; i++ {
		m := value.Rec("Name", value.String(fmt.Sprintf("E%d", i)))
		if i%7 != 0 { // some members stay silent on Dept, like N Bug
			m.Set("Dept", value.String(fmt.Sprintf("D%d", i%20)))
		}
		emp.Insert(m)
	}
	for i := 0; i < 20; i++ {
		dept.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", i)),
			"Addr", value.Rec("State", value.String("PA"))))
	}
	tNaive := timeIt(func() { relation.Join(emp, dept) })
	tHashed := timeIt(func() { relation.JoinFast(emp, dept) })
	if !relation.Equal(relation.Join(emp, dept), relation.JoinFast(emp, dept)) {
		fmt.Println("✗ join strategies DISAGREE")
	}
	fmt.Printf("ablation (n=%d employees ⋈ 20 departments): all-pairs %v, hash-partitioned %v\n",
		n, tNaive, tHashed)
}

// ---------------------------------------------------------------------------

func person(i int) *value.Record {
	return value.Rec("Name", value.String(fmt.Sprintf("P%06d", i)),
		"Address", value.Rec("City", value.String("Austin")))
}

func employee(i int) *value.Record {
	r := person(i)
	r.Set("Empno", value.Int(int64(i)))
	r.Set("Dept", value.String([]string{"Sales", "Manuf", "Admin"}[i%3]))
	return r
}

var employeeT = types.MustParse("{Name: String, Address: {City: String}, Empno: Int, Dept: String}")

func e2GetStrategies() {
	header("E2", "Get[t]: scan vs maintained extents vs class extents",
		`a list-of-dynamics database is "not a very efficient solution since we
       have to traverse the whole database"; the remedy is "a set of
       (statically) typed lists with appropriate structure sharing"`)
	fmt.Printf("%8s %6s | %12s %12s %12s\n", "n", "sel", "scan", "extent", "class")
	for _, n := range sizes([]int{100, 1000, 10000, 100000}) {
		for _, selv := range []float64{0.01, 0.10, 0.50} {
			rng := rand.New(rand.NewSource(42))
			scanDB := core.New(core.StrategyScan)
			idxDB := core.New(core.StrategyIndexed)
			s := class.NewSchema()
			pc := s.MustDeclare("Person", class.VariableClass,
				"{Name: String, Address: {City: String}}")
			ec := s.MustDeclare("Employee", class.VariableClass,
				"{Name: String, Address: {City: String}, Empno: Int, Dept: String}", "Person")
			for i := 0; i < n; i++ {
				var v *value.Record
				cls := pc
				if i == 0 || rng.Float64() < selv {
					v = employee(i)
					cls = ec
				} else {
					v = person(i)
				}
				scanDB.InsertValue(v)
				idxDB.InsertValue(v)
				if _, err := s.NewObject(cls, v); err != nil {
					panic(err)
				}
			}
			tScan := timeIt(func() { scanDB.Get(employeeT) })
			tIdx := timeIt(func() { idxDB.Get(employeeT) })
			tCls := timeIt(func() { _, _ = ec.Extent() })
			fmt.Printf("%8d %6.2f | %12v %12v %12v\n", n, selv, tScan, tIdx, tCls)
		}
	}
	fmt.Println("\nshape: scan grows with n regardless of result size; extent and class")
	fmt.Println("grow only with the result — and the derived extents match the class")
	fmt.Println("baseline without any class construct in the model.")
}

// ---------------------------------------------------------------------------

func bomDAG(depth int) *value.Record {
	part := value.Rec("IsBase", value.Bool(true), "PurchasePrice", value.Float(1),
		"ManufacturingCost", value.Float(0), "Components", value.NewList())
	for i := 1; i <= depth; i++ {
		part = value.Rec("IsBase", value.Bool(false), "PurchasePrice", value.Float(0),
			"ManufacturingCost", value.Float(1),
			"Components", value.NewList(
				value.Rec("SubPart", part, "Qty", value.Int(1)),
				value.Rec("SubPart", part, "Qty", value.Int(1))))
	}
	return part
}

func bomCost(p *value.Record, memo bool, calls *int) float64 {
	*calls++
	if bool(p.MustGet("IsBase").(value.Bool)) {
		return float64(p.MustGet("PurchasePrice").(value.Float))
	}
	if memo {
		if m, ok := p.Get("_cost"); ok {
			return float64(m.(value.Float))
		}
	}
	cost := float64(p.MustGet("ManufacturingCost").(value.Float))
	for _, c := range p.MustGet("Components").(*value.List).Elems {
		comp := c.(*value.Record)
		cost += bomCost(comp.MustGet("SubPart").(*value.Record), memo, calls) *
			float64(comp.MustGet("Qty").(value.Int))
	}
	if memo {
		p.Set("_cost", value.Float(cost))
	}
	return cost
}

func clearMemos(p *value.Record) {
	p.Delete("_cost")
	for _, c := range p.MustGet("Components").(*value.List).Elems {
		clearMemos(c.(*value.Record).MustGet("SubPart").(*value.Record))
	}
}

func e3BillOfMaterials() {
	header("E3", "bill of materials: naive vs memoized TotalCost on a DAG",
		`"when a given subpart is used in more than one way … the total cost
       will be needlessly recomputed … The way out of this is to memoize
       intermediate results" in transient fields on persistent parts`)
	depths := sizes([]int{8, 12, 16, 20})
	fmt.Printf("%6s %10s | %14s %10s | %14s %6s\n",
		"depth", "paths", "naive", "calls", "memo", "calls")
	for _, d := range depths {
		root := bomDAG(d)
		var nCalls int
		tNaive := timeIt(func() { nCalls = 0; bomCost(root, false, &nCalls) })
		var mCalls int
		tMemo := timeIt(func() { mCalls = 0; clearMemos(root); bomCost(root, true, &mCalls) })
		fmt.Printf("%6d %10d | %14v %10d | %14v %6d\n",
			d, 1<<d, tNaive, nCalls, tMemo, mCalls)
	}
	fmt.Println("\nshape: naive calls double per level (exponential); memoized calls")
	fmt.Println("stay linear in the number of distinct parts.")
}

// ---------------------------------------------------------------------------

func world(n int) (*value.List, []*value.Record) {
	lst := value.NewList()
	recs := make([]*value.Record, n)
	for i := 0; i < n; i++ {
		recs[i] = employee(i)
		lst.Append(recs[i])
	}
	return lst, recs
}

func e4Persistence() {
	header("E4", "the three forms of persistence",
		`all-or-nothing copies the whole image; replicating extern/intern copies
       and splits shared values ("update anomalies and wasted storage");
       intrinsic persistence commits reachable changes incrementally`)
	dir, err := os.MkdirTemp("", "dbpl-bench-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("%8s | %12s %12s %12s %14s %14s\n",
		"n", "snapshot", "extern", "intern", "commit(1%)", "commit(all)")
	for _, n := range sizes([]int{100, 1000, 10000}) {
		w, recs := world(n)
		env := snapshot.NewEnvironment()
		env.Bind("db", w)
		tSnap := timeIt(func() {
			var buf bytes.Buffer
			if err := snapshot.Save(&buf, env); err != nil {
				panic(err)
			}
		})

		rep, err := replicating.Open(filepath.Join(dir, fmt.Sprintf("rep%d", n)))
		if err != nil {
			panic(err)
		}
		d := dynamic.Make(w)
		tExt := timeIt(func() {
			if err := rep.Extern("w", d); err != nil {
				panic(err)
			}
		})
		tInt := timeIt(func() {
			if _, err := rep.Intern("w"); err != nil {
				panic(err)
			}
		})

		st, err := intrinsic.Open(filepath.Join(dir, fmt.Sprintf("intr%d.log", n)))
		if err != nil {
			panic(err)
		}
		if err := st.Bind("w", w, nil); err != nil {
			panic(err)
		}
		if _, err := st.Commit(); err != nil {
			panic(err)
		}
		dirty := n / 100
		if dirty == 0 {
			dirty = 1
		}
		i := 0
		var deltaNodes int
		tDelta := timeIt(func() {
			for j := 0; j < dirty; j++ {
				recs[(i+j)%n].Set("Empno", value.Int(int64(i*7+j)))
			}
			i += dirty
			stats, err := st.Commit()
			if err != nil {
				panic(err)
			}
			deltaNodes = stats.NodesWritten
		})
		var fullNodes int
		tFull := timeIt(func() {
			recs[i%n].Set("Empno", value.Int(int64(i)))
			i++
			stats, err := st.Compact()
			if err != nil {
				panic(err)
			}
			fullNodes = stats.NodesKept
		})
		st.Close()
		fmt.Printf("%8d | %12v %12v %12v %14v %14v   (delta wrote %d nodes, full rewrote %d)\n",
			n, tSnap, tExt, tInt, tDelta, tFull, deltaNodes, fullNodes)
	}

	// The correctness half: the update anomaly and its absence.
	fmt.Println("\ncorrectness demonstrations:")
	rep, err := replicating.Open(filepath.Join(dir, "anomaly"))
	if err != nil {
		panic(err)
	}
	c := value.Rec("Balance", value.Int(100))
	_ = rep.ExternValue("a", value.Rec("Ref", c))
	_ = rep.ExternValue("b", value.Rec("Ref", c))
	ia, _ := rep.Intern("a")
	ia.Value().(*value.Record).MustGet("Ref").(*value.Record).Set("Balance", value.Int(0))
	_ = rep.Extern("a", ia)
	ib, _ := rep.Intern("b")
	bBal, _ := ib.Value().(*value.Record).MustGet("Ref").(*value.Record).Get("Balance")
	fmt.Printf("  replicating: c updated via a; b still sees Balance=%s  (update anomaly)\n", bBal)

	st, err := intrinsic.Open(filepath.Join(dir, "shared.log"))
	if err != nil {
		panic(err)
	}
	c2 := value.Rec("Balance", value.Int(100))
	_ = st.Bind("a", value.Rec("Ref", c2), nil)
	_ = st.Bind("b", value.Rec("Ref", c2), nil)
	_, _ = st.Commit()
	st.Close()
	st2, _ := intrinsic.Open(filepath.Join(dir, "shared.log"))
	ra, _ := st2.Root("a")
	rb, _ := st2.Root("b")
	ra.Value.(*value.Record).MustGet("Ref").(*value.Record).Set("Balance", value.Int(0))
	bBal2, _ := rb.Value.(*value.Record).MustGet("Ref").(*value.Record).Get("Balance")
	fmt.Printf("  intrinsic:   c updated via a; b sees Balance=%s  (sharing preserved)\n", bBal2)
	st2.Close()
}

// ---------------------------------------------------------------------------

func e5SchemaEvolution() {
	header("E5", "schema evolution at a persistent handle",
		`recompiling with DBType' succeeds when the stored type is a subtype
       (a view) or consistent (schema enrichment to the meet); otherwise fails`)
	dir, err := os.MkdirTemp("", "dbpl-evo-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	stored := types.MustParse("{Employees: Set[{Name: String, Empno: Int}]}")
	val := value.Rec("Employees", value.NewSet(
		value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))))

	cases := []struct {
		label string
		want  types.Type
	}{
		{"same type", stored},
		{"supertype (view)", types.MustParse("{Employees: Set[{Name: String}]}")},
		{"consistent (enrich)", types.MustParse("{Employees: Set[{Name: String, Empno: Int}], Departments: Set[{Dept: String}]}")},
		{"inconsistent", types.MustParse("{Employees: Int}")},
	}
	fmt.Printf("%-22s | %s\n", "requested DBType'", "outcome")
	for _, cse := range cases {
		st, err := intrinsic.Open(filepath.Join(dir, strings.ReplaceAll(cse.label, " ", "")+".log"))
		if err != nil {
			panic(err)
		}
		_ = st.Bind("DB", val, stored)
		_, err = st.OpenAs("DB", cse.want)
		out := "opened"
		if err != nil {
			out = err.Error()
			if i := strings.Index(out, ": "); i > 0 {
				out = out[i+2:]
			}
			// The enrichment path requires migrating the value to the meet
			// first; do so and retry, as a real recompiled program would.
			if strings.Contains(out, "migration") {
				if meet, ok := types.Meet(stored, cse.want); ok {
					migrated := value.Copy(val).(*value.Record)
					migrated.Set("Departments", value.NewSet())
					if value.Conforms(migrated, meet) {
						_ = st.Bind("DB", migrated, stored)
						if _, err2 := st.OpenAs("DB", cse.want); err2 == nil {
							out = "migrated, then opened; schema enriched to the meet"
						}
					}
				}
			}
		} else if r, _ := st.Root("DB"); !types.Equal(r.Declared, stored) {
			out = "opened; schema enriched to " + r.Declared.String()
		}
		fmt.Printf("%-22s | %s\n", cse.label, out)
		st.Close()
	}
}

// ---------------------------------------------------------------------------

func e6KeysVsCochains() {
	header("E6", "keyed insertion vs cochain (subsumption) insertion",
		`"the imposition of keys will also prevent comparable values from
       coexisting in the same set" — and admits a hash index, while the
       unkeyed cochain must compare against every member`)
	fmt.Printf("%8s | %14s %14s\n", "n", "keyed", "cochain")
	for _, n := range sizes([]int{100, 1000, 4000}) {
		tKeyed := timeIt(func() {
			r := relation.NewKeyed("Name")
			for j := 0; j < n; j++ {
				if _, err := r.Insert(employee(j)); err != nil {
					panic(err)
				}
			}
		})
		tCochain := timeIt(func() {
			r := relation.New()
			for j := 0; j < n; j++ {
				if _, err := r.Insert(employee(j)); err != nil {
					panic(err)
				}
			}
		})
		fmt.Printf("%8d | %14v %14v\n", n, tKeyed, tCochain)
	}
	fmt.Println("\nshape: keyed insertion is near-linear; cochain insertion is quadratic.")
}

// ---------------------------------------------------------------------------

func e7TypeComputation() {
	header("E7", "type-level computation stays cheap and terminates",
		`"the compiler must be able to manipulate type expressions and decide if
       they are equivalent … there are no non-terminating computations at the
       level of types"`)
	wide := func(w int) types.Type {
		fs := make([]types.Field, w)
		for i := range fs {
			fs[i] = types.Field{Label: fmt.Sprintf("F%04d", i), Type: types.Int}
		}
		return types.NewRecord(fs...)
	}
	fmt.Printf("%-34s | %12s %12s\n", "check", "uncached", "cached")
	for _, w := range sizes([]int{16, 64, 256}) {
		sub, super := wide(w), wide(w/2)
		tU := timeIt(func() { types.SubtypeUncached(sub, super) })
		types.Subtype(sub, super)
		tC := timeIt(func() { types.Subtype(sub, super) })
		fmt.Printf("record width %-21d | %12v %12v\n", w, tU, tC)
	}
	q := types.MustParse("forall t <= {Name: String} . t -> List[exists u <= t . u]")
	tQ := timeIt(func() { types.SubtypeUncached(q, q) })
	fmt.Printf("%-34s | %12v\n", "quantified (Get's type)", tQ)
	r1 := types.MustParse("rec t . {Value: Int, Tag: String, Next: t}")
	r2 := types.MustParse("rec t . {Value: Float, Next: t}")
	tR := timeIt(func() { types.SubtypeUncached(r1, r2) })
	fmt.Printf("%-34s | %12v\n", "equi-recursive (Part-style)", tR)
}

// ---------------------------------------------------------------------------

func e8FunctionalDependencies() {
	header("E8", "functional dependency theory over the domain ordering",
		`"the interaction of these two orderings allows us [to] derive the basic
       results of the theory of functional dependencies"`)
	fds := []fd.FD{
		fd.Dep("Empno", "Name,Dept"),
		fd.Dep("Dept", "Floor"),
		fd.Dep("Name,Dept", "Empno"),
	}
	schema := fd.NewAttrSet("Empno", "Name", "Dept", "Floor")
	fmt.Println("schema:", schema, " FDs:", fds)
	fmt.Println("{Empno}+ =", fd.Closure(fd.NewAttrSet("Empno"), fds))
	fmt.Println("Empno -> Floor implied:", fd.Implies(fds, fd.Dep("Empno", "Floor")))
	fmt.Println("Floor -> Dept implied: ", fd.Implies(fds, fd.Dep("Floor", "Dept")))
	keys := fd.CandidateKeys(schema, fds)
	ks := make([]string, len(keys))
	for i, k := range keys {
		ks[i] = k.String()
	}
	sort.Strings(ks)
	fmt.Println("candidate keys:", ks)
	mc := fd.MinimalCover(fds)
	fmt.Println("minimal cover: ", mc)

	// Satisfaction on a generalized relation with partial tuples.
	gen := relation.New(
		value.Rec("Empno", value.Int(1), "Name", value.String("J Doe"), "Dept", value.String("Sales")),
		value.Rec("Empno", value.Int(2), "Name", value.String("M Dee")), // silent on Dept
	)
	fmt.Println("generalized relation satisfies Empno -> Dept:",
		fd.SatisfiedGen(gen, fd.Dep("Empno", "Dept")))

	var big []fd.FD
	for i := 0; i < 128; i++ {
		big = append(big, fd.Dep(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1)))
	}
	t := timeIt(func() { fd.Closure(fd.NewAttrSet("A0"), big) })
	fmt.Printf("closure over 128 FDs: %v\n", t)
}

// ---------------------------------------------------------------------------

func e9DerivedExtents() {
	header("E9", "the class hierarchy derived from the type hierarchy",
		`"there is no need for a distinguished family of types for which
       inheritance is defined, nor is it necessary to have unique extents
       associated with these types"`)
	db := core.New(core.StrategyScan)
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		r := person(i)
		kind := "person"
		if rng.Intn(2) == 0 {
			r.Set("Empno", value.Int(int64(i)))
			r.Set("Dept", value.String("Sales"))
			kind = "employee"
		}
		if rng.Intn(4) == 0 {
			r.Set("StudentID", value.Int(int64(i)))
			if kind == "employee" {
				kind = "both"
			} else {
				kind = "student"
			}
		}
		counts[kind]++
		db.InsertValue(r)
	}
	personT := types.MustParse("{Name: String}")
	studentT := types.MustParse("{Name: String, StudentID: Int}")
	bothT := types.MustParse("{Name: String, Empno: Int, StudentID: Int}")
	fmt.Printf("population: %v\n", counts)
	fmt.Printf("Get[Person]          = %d (expect %d)\n", len(db.Get(personT)), 2000)
	fmt.Printf("Get[Employee]        = %d (expect %d)\n", len(db.Get(employeeTShort())),
		counts["employee"]+counts["both"])
	fmt.Printf("Get[Student]         = %d (expect %d)\n", len(db.Get(studentT)),
		counts["student"]+counts["both"])
	fmt.Printf("Get[StudentEmployee] = %d (expect %d)\n", len(db.Get(bothT)), counts["both"])
	fmt.Println("containment Get[Employee] ⊆ Get[Person]: holds by Employee ≤ Person")
}

func employeeTShort() types.Type {
	return types.MustParse("{Name: String, Empno: Int, Dept: String}")
}

// ---------------------------------------------------------------------------

func e10TypeAsRelation() {
	header("E10", "a type is a very large relation",
		`"the type {Name: String; Age: Int} can be seen as a very large relation
       … the join of this relation with a relation R … extract[s] all the
       objects in R whose type is a subtype" — the class-extraction operation`)
	r := relation.New()
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			r.Insert(employee(i))
		} else {
			r.Insert(person(i))
		}
	}
	extracted := relation.ExtractByType(r, employeeT)
	fmt.Printf("|R| = %d, |R ⋈ Employee-type| = %d\n", r.Len(), extracted.Len())
	db := core.New(core.StrategyScan)
	for _, m := range r.Members() {
		db.InsertValue(m)
	}
	agree := extracted.Len() == len(db.Get(employeeT))
	fmt.Println("agrees with the generic Get:", agree)
	t := timeIt(func() { relation.ExtractByType(r, employeeT) })
	fmt.Printf("extraction cost over 1000 objects: %v\n", t)

	// Serialization principle P2, measured: tagged vs untagged images.
	w, _ := world(1000)
	tagged, _ := codec.MarshalTagged(w, nil)
	plain, _ := codec.MarshalValue(w)
	fmt.Printf("codec: tagged image %d bytes vs untagged %d bytes (type travels with value)\n",
		len(tagged), len(plain))
}

// ---------------------------------------------------------------------------

func e11InternedTypes() {
	header("E11", "interned types and a Fork flat in database size",
		`the Get hot path after the engine refactor: hash-consed type handles
       make repeated type computation pointer work, and a hypothetical
       state of the database costs nothing to start`)

	// Interning: the first derivation for a structure is structural; every
	// check after it — on the same pointer or any alpha-equivalent type — is
	// an atomic load plus a pointer-keyed cache hit.
	wide := func(w int) types.Type {
		fs := make([]types.Field, w)
		for i := range fs {
			fs[i] = types.Field{Label: fmt.Sprintf("F%04d", i), Type: types.Int}
		}
		return types.NewRecord(fs...)
	}
	fmt.Printf("%-34s | %14s %14s\n", "subtype check (record width)", "uncached", "interned+cached")
	for _, w := range sizes([]int{16, 64, 256}) {
		sub, super := wide(w), wide(w/2)
		tU := timeIt(func() { types.SubtypeUncached(sub, super) })
		types.Subtype(sub, super)
		tC := timeIt(func() { types.Subtype(sub, super) })
		fmt.Printf("w = %-30d | %14v %14v\n", w, tU, tC)
	}
	alpha := types.MustParse("forall t <= {Name: String} . t")
	beta := types.MustParse("forall u <= {Name: String} . u")
	fmt.Printf("alpha-equivalent quantified types share one handle: %v\n",
		types.Intern(alpha) == types.Intern(beta))

	// Fork is O(member types), not O(n): both sides keep the members and
	// copy an extent on its first write after the fork.
	fmt.Printf("\n%-22s | %12s\n", "Fork()", "per call")
	for _, fn := range sizes([]int{1000, 100000}) {
		fdb := core.New(core.StrategyScan)
		for i := 0; i < fn; i++ {
			fdb.InsertValue(person(i))
		}
		t := timeIt(func() { fdb.Fork() })
		fmt.Printf("n = %-18d | %12v\n", fn, t)
	}
	fmt.Println("\nshape: subtype cost is paid once per distinct type pair; fork cost is")
	fmt.Println("flat in database size.")
}

// ---------------------------------------------------------------------------

func e16AccessPaths() {
	header("E16", "cost-based access paths: scan vs flat extent vs field index",
		`the internal/index maintained extents keep one flat slice per type,
       so a Get costs the result walk. The planner rows are historical:
       the server now answers every GET with the extent union, memoized
       per type generation`)
	n := 10000
	if *quick {
		n = 2000
	}
	model := plan.NewModel(telemetry.NewRegistry())
	empIn := types.Intern(employeeT)

	// packAll is what the server's extent path actually serves: the flat
	// entries converted to Packed, so the comparison against db.Get (which
	// also returns Packed) is apples to apples.
	packAll := func(entries []index.Entry) []core.Packed {
		out := make([]core.Packed, len(entries))
		for i, e := range entries {
			out[i] = core.Packed{Value: e.Dyn.Value(), Witness: e.Dyn.Type()}
		}
		return out
	}

	// Regime 1: few member types (person/employee), selectivity sweep. The
	// flat extent costs O(result); the scan pays for every member.
	fmt.Printf("regime 1: two member types, n=%d\n", n)
	fmt.Printf("%6s | %12s %12s | planner (cold priors)\n", "sel", "scan", "flat extent")
	for _, selv := range []float64{0.01, 0.10, 0.50} {
		rng := rand.New(rand.NewSource(42))
		scanDB := core.New(core.StrategyScan)
		var ops []index.Op
		for i := 0; i < n; i++ {
			var v *value.Record
			if i == 0 || rng.Float64() < selv {
				v = employee(i)
			} else {
				v = person(i)
			}
			scanDB.InsertValue(v)
			ops = append(ops, index.Op{Add: dynamic.Make(v)})
		}
		set, _ := index.NewSet().Apply(ops)
		tScan := timeIt(func() { scanDB.Get(employeeT) })
		tFlat := timeIt(func() {
			entries, _ := set.GetEntries(empIn)
			packAll(entries)
		})
		p := model.PlanGet(plan.GetInput{N: set.Len(), Types: set.Types()})
		fmt.Printf("%6.2f | %12v %12v | %s\n", selv, tScan, tFlat, p.Path)
	}

	// Regime 2: every member its own record type (distinct field labels), a
	// declared index on the rare Empno field. The type generation's memo,
	// filled by timeIt's warm-up, leaves the extent union the one match.
	fmt.Printf("\nregime 2: %d distinct member types, index on rare field Empno (1%%)\n", n)
	rng := rand.New(rand.NewSource(7))
	scanDB := core.New(core.StrategyScan)
	var ops []index.Op
	for i := 0; i < n; i++ {
		var v *value.Record
		if i%100 == 0 {
			v = employee(i)
		} else {
			v = value.Rec("Name", value.String(fmt.Sprintf("P%06d", i)),
				fmt.Sprintf("X%05d", i), value.Int(int64(rng.Intn(10))))
		}
		scanDB.InsertValue(v)
		ops = append(ops, index.Op{Add: dynamic.Make(v)})
	}
	set, _ := index.NewSet(index.Def{Field: "Empno"}).Apply(ops)
	empnoT := types.Intern(types.MustParse("{Empno: Int}"))
	tScan := timeIt(func() { scanDB.Get(empnoT.Type()) })
	tExtent := timeIt(func() {
		entries, _ := set.GetEntries(empnoT)
		packAll(entries)
	})
	tIndex := timeIt(func() {
		cands, _ := set.Candidates("Empno")
		var out []core.Packed
		for _, e := range cands {
			if types.SubtypeInterned(e.Dyn.Interned(), empnoT) {
				out = append(out, core.Packed{Value: e.Dyn.Value(), Witness: e.Dyn.Type()})
			}
		}
		_ = out
	})
	cand, _ := set.CandidateCount("Empno")
	p := model.PlanGet(plan.GetInput{N: set.Len(), Types: set.Types(), Field: "Empno", Candidates: cand})
	fmt.Printf("%-14s | scan %v, extent-union %v, field index %v (%d candidates)\n",
		"measured", tScan, tExtent, tIndex, cand)
	fmt.Printf("%-14s | %s\n", "planner", p)

	// Regime 3: the join planner replaces the fixed "both sides >= 16"
	// threshold with the same cost discipline.
	jn := 1000
	if *quick {
		jn = 200
	}
	emp, dept := relation.New(), relation.New()
	for i := 0; i < jn; i++ {
		m := value.Rec("Name", value.String(fmt.Sprintf("E%d", i)))
		if i%7 != 0 {
			m.Set("Dept", value.String(fmt.Sprintf("D%d", i%20)))
		}
		emp.Insert(m)
	}
	for i := 0; i < 20; i++ {
		dept.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", i))))
	}
	jp := relation.PlanJoin(emp, dept)
	tNested := timeIt(func() { relation.Join(emp, dept) })
	tPlanned := timeIt(func() { relation.JoinPlanned(emp, dept, jp) })
	fmt.Printf("\nregime 3: join %d x 20 — nested %v, planned %v\n", jn, tNested, tPlanned)
	fmt.Printf("%-14s | %s\n", "planner", jp)

	fmt.Println("\nshape: the flat extent reads in O(result) at every selectivity; with the")
	fmt.Println("type-generation memo the extent union is no slower than the field index")
	fmt.Println("even when thousands of member types make unions wide.")
}

// ---------------------------------------------------------------------------

// e17Serve boots one real server (primary or follower) on a loopback
// port, returning its address, its store (for convergence polling), and
// a blocking stop.
func e17Serve(path string, cfg server.Config) (string, *intrinsic.Store, func(), error) {
	st, err := intrinsic.Open(path)
	if err != nil {
		return "", nil, nil, err
	}
	srv, err := server.New(st, cfg)
	if err != nil {
		st.Close()
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return "", nil, nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
		st.Close()
	}
	return ln.Addr().String(), st, stop, nil
}

func e17Converged(p, f *intrinsic.Store) {
	for f.DurableEnd() != p.DurableEnd() {
		time.Sleep(2 * time.Millisecond)
	}
}

func e17Replication() {
	header("E17", "log-shipping replication: read scaling and steady-state lag",
		`the follower serves the same extent-union reads as the primary
       from its replayed log, so read capacity should scale with follower
       count while writes stay single-primary; replication is async, so
       the cost is a staleness window, measured here in bytes and time`)
	seed, burst, readers := 256, 100, 4
	window := 400 * time.Millisecond
	if *quick {
		seed, burst, window = 64, 25, 100*time.Millisecond
	}
	dir, err := os.MkdirTemp("", "e17-*")
	if err != nil {
		fmt.Println("e17: ", err)
		return
	}
	defer os.RemoveAll(dir)

	paddr, pst, pstop, err := e17Serve(filepath.Join(dir, "primary.log"), server.Config{})
	if err != nil {
		fmt.Println("e17: ", err)
		return
	}
	defer pstop()
	w, err := client.Dial(paddr, nil)
	if err != nil {
		fmt.Println("e17: ", err)
		return
	}
	defer w.Close()
	for i := 0; i < seed; i++ {
		name := fmt.Sprintf("r%04d", i)
		if err := w.Put(name, value.Rec("Name", value.String(name), "Empno", value.Int(int64(i))), nil); err != nil {
			fmt.Println("e17: ", err)
			return
		}
	}

	// NAMES round trips from `readers` pipelined goroutines for a fixed
	// wall window — the small-response read floor, so the number measures
	// request handling, not result encoding (that is E13's axis).
	throughput := func(c *client.Client) float64 {
		var ops atomic.Int64
		stopCh := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					if _, err := c.Names(); err == nil {
						ops.Add(1)
					}
				}
			}()
		}
		time.Sleep(window)
		close(stopCh)
		wg.Wait()
		return float64(ops.Load()) / window.Seconds()
	}

	fmt.Printf("read scaling: %d pipelined readers, NAMES floor, %d roots (GOMAXPROCS=%d)\n",
		readers, seed, runtime.GOMAXPROCS(0))
	fmt.Printf("%-23s | %12s\n", "topology", "reads/sec")
	var fstores []*intrinsic.Store
	var faddrs []string
	for followers := 0; followers <= 2; followers++ {
		if followers > 0 {
			addr, fst, fstop, err := e17Serve(filepath.Join(dir, fmt.Sprintf("f%d.log", followers)),
				server.Config{Follow: paddr, ReplHeartbeat: 50 * time.Millisecond})
			if err != nil {
				fmt.Println("e17: ", err)
				return
			}
			defer fstop()
			fstores = append(fstores, fst)
			faddrs = append(faddrs, addr)
			for _, fst := range fstores {
				e17Converged(pst, fst)
			}
		}
		c, err := client.Dial(paddr, &client.Options{
			Replicas: append([]string(nil), faddrs...), ReplicaProbe: 20 * time.Millisecond})
		if err != nil {
			fmt.Println("e17: ", err)
			return
		}
		time.Sleep(100 * time.Millisecond) // let a probe prove the replicas in
		rate := throughput(c)
		c.Close()
		fmt.Printf("primary + %d followers   | %12.0f\n", followers, rate)
	}

	// Steady-state lag: a burst of autocommitting writes on the primary
	// while one follower tails; the lag observed after each ack, and the
	// time from the last ack to full convergence.
	fst := fstores[0]
	e17Converged(pst, fst)
	var maxLag int64
	before := pst.DurableEnd()
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		if err := w.Put(fmt.Sprintf("b%04d", i), value.Int(int64(i)), nil); err != nil {
			fmt.Println("e17: ", err)
			return
		}
		if lag := pst.DurableEnd() - fst.DurableEnd(); lag > maxLag {
			maxLag = lag
		}
	}
	acked := time.Since(t0)
	t1 := time.Now()
	e17Converged(pst, fst)
	catchup := time.Since(t1)
	shipped := pst.DurableEnd() - before
	fmt.Printf("\nlag under a write burst: %d autocommits (%d bytes) in %v\n",
		burst, shipped, acked.Round(time.Millisecond))
	fmt.Printf("%-23s | %12s\n", "max lag after an ack", fmt.Sprintf("%d bytes", maxLag))
	fmt.Printf("%-23s | %12v\n", "catch-up after last ack", catchup.Round(time.Microsecond))

	fmt.Println("\nshape: followers add read capacity only insofar as cores exist to")
	fmt.Println("run them — on a single-CPU host the topologies collapse to the same")
	fmt.Println("wall clock and the table shows absence-of-overhead, not speedup (the")
	fmt.Println("E13 caveat); the lag numbers are the honest cost of asynchrony: the")
	fmt.Println("window trails by about one commit group and closes in milliseconds.")
}

// ---------------------------------------------------------------------------

// slowSyncFS models an SSD-class disk on hosts whose fsync is nearly
// free (tmpfs, battery-backed cache): every Sync costs an extra fixed
// latency. Without it E18 would measure the loopback round trip, not
// durability amortization — the fsync must be the dominant cost for the
// experiment's question to be the one answered.
type slowSyncFS struct {
	iofault.FS
	delay time.Duration
}

func (f slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: file, delay: f.delay}, nil
}

type slowSyncFile struct {
	iofault.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// e18Serve is e17Serve over the modeled disk.
func e18Serve(path string, cfg server.Config, syncDelay time.Duration) (string, func(), error) {
	st, err := intrinsic.OpenFS(slowSyncFS{FS: iofault.OS{}, delay: syncDelay}, path)
	if err != nil {
		return "", nil, err
	}
	srv, err := server.New(st, cfg)
	if err != nil {
		st.Close()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
		st.Close()
	}
	return ln.Addr().String(), stop, nil
}

// e18Throughput runs `writers` goroutines, each autocommitting PUTs over
// its own client for a fixed wall window, and returns aggregate acked
// writes per second.
func e18Throughput(addr string, writers int, window time.Duration) (float64, error) {
	clients := make([]*client.Client, writers)
	for i := range clients {
		c, err := client.Dial(addr, &client.Options{PoolSize: 1})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[i] = c
	}
	var ops atomic.Int64
	var firstErr atomic.Value
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("w%02d", w)
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				if err := clients[w].Put(name, value.Int(int64(i)), nil); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				ops.Add(1)
			}
		}()
	}
	time.Sleep(window)
	close(stopCh)
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return 0, err
	}
	return float64(ops.Load()) / window.Seconds(), nil
}

func e18GroupCommit() {
	header("E18", "group commit: PUT throughput vs writer concurrency per durability mode",
		`per-commit durability serializes every writer behind a private fsync,
       so aggregate throughput flatlines at 1/fsync no matter how many
       clients push; the commit coalescer stages concurrent commits into
       one batch promoted by one shared fsync, so throughput should scale
       with the batch while each writer keeps the same guarantee`)
	window := 400 * time.Millisecond
	sweep := []int{1, 2, 4, 8, 16}
	syncDelay := 2 * time.Millisecond // SSD-class fsync
	if *quick {
		window = 150 * time.Millisecond
		sweep = []int{1, 4, 8}
	}
	dir, err := os.MkdirTemp("", "e18-*")
	if err != nil {
		fmt.Println("e18: ", err)
		return
	}
	defer os.RemoveAll(dir)

	fmt.Printf("fsync modeled at %v (SSD-class); host fsync is near-free, which\n", syncDelay)
	fmt.Println("would measure the loopback round trip instead of durability cost")
	modes := []server.Durability{server.DurPerCommit, server.DurGroup}
	rates := map[server.Durability]map[int]float64{}
	fmt.Printf("\n%-12s |", "durability")
	for _, w := range sweep {
		fmt.Printf(" %9s", fmt.Sprintf("w=%d", w))
	}
	fmt.Println("   (acked writes/sec)")
	for _, mode := range modes {
		addr, stop, err := e18Serve(filepath.Join(dir, mode.String()+".log"),
			server.Config{Durability: mode}, syncDelay)
		if err != nil {
			fmt.Println("e18: ", err)
			return
		}
		rates[mode] = map[int]float64{}
		fmt.Printf("%-12s |", mode)
		for _, w := range sweep {
			rate, err := e18Throughput(addr, w, window)
			if err != nil {
				fmt.Println("\ne18: ", err)
				stop()
				return
			}
			rates[mode][w] = rate
			fmt.Printf(" %9.0f", rate)
		}
		fmt.Println()
		stop()
	}

	base := rates[server.DurPerCommit][1]
	grp := rates[server.DurGroup][8]
	if base > 0 {
		fmt.Printf("\namortization: group @ 8 writers = %.1fx the per-commit single-writer rate", grp/base)
		if grp >= 2*base {
			fmt.Println("  ✓ (>= 2x)")
		} else {
			fmt.Println("  ✗ (< 2x)")
		}
	}
	fmt.Println("\nshape: per-commit is flat — adding writers only lengthens the fsync")
	fmt.Println("queue; group scales because the batch amortizes that queue into one")
	fmt.Println("shared fsync (batches self-tune to whatever queued during the previous")
	fmt.Println("one). The scaling is real even on a single CPU — the writers overlap")
	fmt.Println("in fsync *wait*, not in compute — though absolute rates compress as")
	fmt.Println("cores saturate.")
}

// ---------------------------------------------------------------------------

// e19Converged polls HEALTH on both servers until their durable ends
// agree (and are past the bare header), i.e. the follower caught up.
func e19Converged(pc, fc *client.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ph, perr := pc.Health()
		fh, ferr := fc.Health()
		if perr == nil && ferr == nil && ph.DurableEnd == fh.DurableEnd && ph.DurableEnd > 8 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower never converged (primary %v/%v, follower %v/%v)", ph.DurableEnd, perr, fh.DurableEnd, ferr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// e19Trial runs one failover: seed writes through a client pinned to the
// primary, kill the primary, promote the follower (the watchdog's job,
// issued immediately — detection latency is policy, not mechanism, so it
// is excluded), and clock until the *same client's* next write is acked
// by the new primary. Returns (promotion time, total RTO).
func e19Trial(dir string, mode server.Durability, syncDelay time.Duration) (promote, rto time.Duration, err error) {
	paddr, pstop, err := e18Serve(filepath.Join(dir, "primary.log"), server.Config{Durability: mode}, syncDelay)
	if err != nil {
		return 0, 0, err
	}
	stopped := false
	defer func() {
		if !stopped {
			pstop()
		}
	}()
	faddr, fstop, err := e18Serve(filepath.Join(dir, "follower.log"),
		server.Config{Durability: mode, Follow: paddr, ReplHeartbeat: 50 * time.Millisecond, AllowPromote: true},
		syncDelay)
	if err != nil {
		return 0, 0, err
	}
	defer fstop()

	c, err := client.Dial(paddr, &client.Options{Replicas: []string{faddr}})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	fc, err := client.Dial(faddr, nil)
	if err != nil {
		return 0, 0, err
	}
	defer fc.Close()
	for i := 0; i < 20; i++ {
		if err := c.Put(fmt.Sprintf("seed%02d", i), value.Int(int64(i)), nil); err != nil {
			return 0, 0, err
		}
	}
	if err := e19Converged(c, fc); err != nil {
		return 0, 0, err
	}

	t0 := time.Now()
	pstop()
	stopped = true
	if _, err := fc.Promote(); err != nil {
		return 0, 0, err
	}
	promote = time.Since(t0)
	// The pinned client's next write fails over on its own: conn lost →
	// probe the failover set → re-pin to the highest-epoch primary →
	// replay under the same idempotency key.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = c.Put("after-failover", value.Int(1), nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("no acked write within 10s of primary death: %w", err)
		}
	}
	return promote, time.Since(t0), nil
}

func e19Failover() {
	header("E19", "failover: recovery time from primary death to the next acked write",
		`persistence that survives "the lifetime of the computing system" must
       survive the primary's death: a follower is promoted under a durable
       epoch that fences the old primary, and the client re-pins writes by
       probing for the highest epoch — RTO is mechanism (promote + probe +
       replay), not detection policy`)
	trials := 5
	syncDelay := 2 * time.Millisecond // the same SSD-class fsync E18 models
	if *quick {
		trials = 2
	}
	fmt.Printf("fsync modeled at %v (as E18); promotion itself pays one durable\n", syncDelay)
	fmt.Printf("epoch append; RTO clocks primary-death → promote → client probe/re-pin\n")
	fmt.Printf("→ replayed write acked on the new primary (median of %d trials)\n\n", trials)
	fmt.Printf("%-12s | %12s | %12s\n", "durability", "promote", "total RTO")
	for _, mode := range []server.Durability{server.DurPerCommit, server.DurGroup} {
		var promotes, rtos []time.Duration
		for i := 0; i < trials; i++ {
			dir, err := os.MkdirTemp("", "e19-*")
			if err != nil {
				fmt.Println("e19: ", err)
				return
			}
			p, r, err := e19Trial(dir, mode, syncDelay)
			os.RemoveAll(dir)
			if err != nil {
				fmt.Println("e19: ", err)
				return
			}
			promotes, rtos = append(promotes, p), append(rtos, r)
		}
		sort.Slice(promotes, func(i, j int) bool { return promotes[i] < promotes[j] })
		sort.Slice(rtos, func(i, j int) bool { return rtos[i] < rtos[j] })
		fmt.Printf("%-12s | %12v | %12v\n", mode,
			promotes[len(promotes)/2].Round(100*time.Microsecond), rtos[len(rtos)/2].Round(100*time.Microsecond))
	}
	fmt.Println("\nthe RTO is dominated by the client's side of the failover — noticing")
	fmt.Println("the dead connection, probing the candidate set under its 2s-capped")
	fmt.Println("timeouts, and replaying — not by the promotion, which is one epoch")
	fmt.Println("append + fsync. durability mode barely moves it: the epoch record and")
	fmt.Println("the replayed write each pay one (possibly shared) fsync either way.")
}
