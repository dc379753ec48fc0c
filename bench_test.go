// Benchmarks of the experiments E1–E11 in DESIGN.md §4, whose index names
// each one's benchmarks, tests and examples. The paper contains one figure
// and no numeric tables; E1 reproduces the figure and the rest
// operationalize the paper's qualitative performance claims.
package dbpl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dbpl/internal/class"
	"dbpl/internal/core"
	"dbpl/internal/dynamic"
	"dbpl/internal/fd"
	"dbpl/internal/lang"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/replicating"
	"dbpl/internal/persist/snapshot"
	"dbpl/internal/relation"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// ---------------------------------------------------------------------------
// Shared workload generators
// ---------------------------------------------------------------------------

var (
	benchPersonT   = types.MustParse("{Name: String, Address: {City: String}}")
	benchEmployeeT = types.MustParse("{Name: String, Address: {City: String}, Empno: Int, Dept: String}")
)

func benchPerson(i int) *value.Record {
	return value.Rec("Name", value.String(fmt.Sprintf("P%06d", i)),
		"Address", value.Rec("City", value.String("Austin")))
}

func benchEmployee(i int) *value.Record {
	r := benchPerson(i)
	r.Set("Empno", value.Int(int64(i)))
	r.Set("Dept", value.String([]string{"Sales", "Manuf", "Admin"}[i%3]))
	return r
}

// fillMixed inserts n objects of which selectivity*n are employees, the
// rest plain persons.
func fillMixed(db *core.Database, n int, selectivity float64) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		// i == 0 is always an employee so every (n, selectivity) cell has a
		// non-empty result.
		if i == 0 || rng.Float64() < selectivity {
			db.InsertValue(benchEmployee(i))
		} else {
			db.InsertValue(benchPerson(i))
		}
	}
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: the generalized natural join
// ---------------------------------------------------------------------------

func BenchmarkFigure1Join(b *testing.B) {
	r1, r2 := relation.Figure1R1(), relation.Figure1R2()
	want := relation.Figure1Result()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got := relation.Join(r1, r2)
		if got.Len() != want.Len() {
			b.Fatalf("join produced %d tuples, want %d", got.Len(), want.Len())
		}
	}
}

// Scaled-up Figure 1: partial employee/department relations of growing size.
func BenchmarkGeneralizedJoin(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			emp := relation.New()
			dept := relation.New()
			for i := 0; i < n; i++ {
				emp.Insert(value.Rec("Name", value.String(fmt.Sprintf("E%d", i)),
					"Dept", value.String(fmt.Sprintf("D%d", i%10))))
			}
			for i := 0; i < 10; i++ {
				dept.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", i)),
					"Addr", value.Rec("State", value.String("PA"))))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				relation.Join(emp, dept)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E2 — Get strategies: scan vs maintained extents
// ---------------------------------------------------------------------------

func BenchmarkGetScan(b *testing.B) {
	benchGet(b, core.StrategyScan)
}

func BenchmarkGetExtent(b *testing.B) {
	benchGet(b, core.StrategyIndexed)
}

func benchGet(b *testing.B, strategy core.Strategy) {
	for _, n := range []int{100, 1000, 10000} {
		for _, sel := range []float64{0.01, 0.10, 0.50} {
			b.Run(fmt.Sprintf("n=%d/sel=%.2f", n, sel), func(b *testing.B) {
				db := core.New(strategy)
				fillMixed(db, n, sel)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := db.Get(benchEmployeeT); len(got) == 0 && sel > 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}

// BenchmarkGetClass is the explicit class-extent baseline (Adaplex): the
// extent is read directly off the class.
func BenchmarkGetClass(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, sel := range []float64{0.01, 0.10, 0.50} {
			b.Run(fmt.Sprintf("n=%d/sel=%.2f", n, sel), func(b *testing.B) {
				s := class.NewSchema()
				person := s.MustDeclare("Person", class.VariableClass,
					"{Name: String, Address: {City: String}}")
				employee := s.MustDeclare("Employee", class.VariableClass,
					"{Name: String, Address: {City: String}, Empno: Int, Dept: String}", "Person")
				_ = person
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < n; i++ {
					if rng.Float64() < sel {
						if _, err := s.NewObject(employee, benchEmployee(i)); err != nil {
							b.Fatal(err)
						}
					} else if _, err := s.NewObject(person, benchPerson(i)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := employee.Extent(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — Bill of materials: naive vs memoized TotalCost on a DAG
// ---------------------------------------------------------------------------

// bomDAG builds a maximally shared parts DAG of the given depth.
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

func bomCost(p *value.Record, memo bool) float64 {
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
		cost += bomCost(comp.MustGet("SubPart").(*value.Record), memo) *
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

func BenchmarkBOMNaive(b *testing.B) {
	for _, depth := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			root := bomDAG(depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bomCost(root, false)
			}
		})
	}
}

func BenchmarkBOMMemo(b *testing.B) {
	// The memo reset is timed along with the costing: both are linear in
	// the number of distinct parts, so the measured growth is the memoized
	// algorithm's. (Per-iteration StopTimer would distort wall time far
	// more than the O(depth) reset does.)
	for _, depth := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			root := bomDAG(depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clearMemos(root)
				bomCost(root, true)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E4 — The three forms of persistence
// ---------------------------------------------------------------------------

// benchWorld builds a world of n independent records plus a root list.
func benchWorld(n int) (*value.List, []*value.Record) {
	lst := value.NewList()
	recs := make([]*value.Record, n)
	for i := 0; i < n; i++ {
		recs[i] = benchEmployee(i)
		lst.Append(recs[i])
	}
	return lst, recs
}

func BenchmarkSnapshotSave(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			world, _ := benchWorld(n)
			env := snapshot.NewEnvironment()
			env.Bind("db", world)
			env.Bind("scratch", value.NewList(value.Int(1)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := snapshot.Save(&buf, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtern(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			world, _ := benchWorld(n)
			st, err := replicating.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			d := dynamic.Make(world)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Extern("world", d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIntern(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			world, _ := benchWorld(n)
			st, err := replicating.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Extern("world", dynamic.Make(world)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Intern("world"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntrinsicCommitDelta measures the incremental commit: a fraction
// of the world is mutated between commits, and only those nodes are
// rewritten.
func BenchmarkIntrinsicCommitDelta(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, frac := range []float64{0.01, 0.10} {
			b.Run(fmt.Sprintf("n=%d/dirty=%.2f", n, frac), func(b *testing.B) {
				world, recs := benchWorld(n)
				st, err := intrinsic.Open(filepath.Join(b.TempDir(), "s.log"))
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				if err := st.Bind("world", world, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Commit(); err != nil {
					b.Fatal(err)
				}
				dirty := int(frac * float64(n))
				if dirty == 0 {
					dirty = 1
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < dirty; j++ {
						recs[(i*dirty+j)%n].Set("Empno", value.Int(int64(i*1000+j)))
					}
					if _, err := st.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIntrinsicCommitFull is the ablation: every node rewritten every
// commit (simulated by Compact, which rewrites the full reachable heap).
func BenchmarkIntrinsicCommitFull(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			world, recs := benchWorld(n)
			st, err := intrinsic.Open(filepath.Join(b.TempDir(), "s.log"))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.Bind("world", world, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs[i%n].Set("Empno", value.Int(int64(i)))
				if _, err := st.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E5 — schema evolution is exercised by tests; here we measure OpenAs cost
// ---------------------------------------------------------------------------

func BenchmarkOpenAs(b *testing.B) {
	st, err := intrinsic.Open(filepath.Join(b.TempDir(), "s.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	world, _ := benchWorld(100)
	if err := st.Bind("DB", world, nil); err != nil {
		b.Fatal(err)
	}
	view := types.NewList(types.MustParse("{Name: String}"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.OpenAs("DB", view); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E6 — keyed vs cochain insertion
// ---------------------------------------------------------------------------

func BenchmarkInsertKeyed(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := relation.NewKeyed("Name")
				for j := 0; j < n; j++ {
					if _, err := r.Insert(benchEmployee(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkInsertCochain(b *testing.B) {
	for _, n := range []int{100, 1000} { // O(n²): keep sizes modest
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := relation.New()
				for j := 0; j < n; j++ {
					if _, err := r.Insert(benchEmployee(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — type-level computation
// ---------------------------------------------------------------------------

func wideRecord(width int) types.Type {
	fs := make([]types.Field, width)
	for i := range fs {
		fs[i] = types.Field{Label: fmt.Sprintf("F%04d", i), Type: types.Int}
	}
	return types.NewRecord(fs...)
}

func deepRecord(depth int) types.Type {
	t := types.Type(types.Int)
	for i := 0; i < depth; i++ {
		t = types.NewRecord(types.Field{Label: "Next", Type: t}, types.Field{Label: "V", Type: types.Int})
	}
	return t
}

func BenchmarkSubtypeRecordWidth(b *testing.B) {
	for _, w := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			sub, super := wideRecord(w), wideRecord(w/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !types.SubtypeUncached(sub, super) {
					b.Fatal("subtype failed")
				}
			}
		})
	}
}

func BenchmarkSubtypeRecordDepth(b *testing.B) {
	for _, d := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			t1, t2 := deepRecord(d), deepRecord(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !types.SubtypeUncached(t1, t2) {
					b.Fatal("subtype failed")
				}
			}
		})
	}
}

func BenchmarkSubtypeQuantified(b *testing.B) {
	s := types.MustParse("forall t <= {Name: String, Empno: Int} . t -> List[exists u <= t . u]")
	u := types.MustParse("forall t <= {Name: String, Empno: Int} . t -> List[exists u <= t . u]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !types.SubtypeUncached(s, u) {
			b.Fatal("subtype failed")
		}
	}
}

// BenchmarkSubtypeCached shows the effect of the verdict cache (DESIGN.md
// ablation).
func BenchmarkSubtypeCached(b *testing.B) {
	sub, super := wideRecord(256), wideRecord(128)
	types.Subtype(sub, super) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !types.Subtype(sub, super) {
			b.Fatal("subtype failed")
		}
	}
}

func BenchmarkSubtypeRecursive(b *testing.B) {
	s := types.MustParse("rec t . {Value: Int, Tag: String, Next: t}")
	u := types.MustParse("rec t . {Value: Float, Next: t}")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !types.SubtypeUncached(s, u) {
			b.Fatal("subtype failed")
		}
	}
}

// ---------------------------------------------------------------------------
// E8 — functional dependency closure
// ---------------------------------------------------------------------------

func BenchmarkFDClosure(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("fds=%d", n), func(b *testing.B) {
			var fds []fd.FD
			for i := 0; i < n; i++ {
				fds = append(fds, fd.Dep(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1)))
			}
			x := fd.NewAttrSet("A0")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := fd.Closure(x, fds); len(got) != n+1 {
					b.Fatalf("closure size %d", len(got))
				}
			}
		})
	}
}

func BenchmarkFDMinimalCover(b *testing.B) {
	var fds []fd.FD
	for i := 0; i < 16; i++ {
		fds = append(fds, fd.Dep(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d,A%d", i+1, (i+2)%16)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.MinimalCover(fds)
	}
}

// ---------------------------------------------------------------------------
// E10 — type-as-relation extraction
// ---------------------------------------------------------------------------

func BenchmarkExtractByType(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := relation.New()
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					r.Insert(benchEmployee(i))
				} else {
					r.Insert(benchPerson(i))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := relation.ExtractByType(r, benchEmployeeT); got.Len() == 0 {
					b.Fatal("empty extraction")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Codec ablation: tagged (type travels with value, principle P2) vs untagged
// ---------------------------------------------------------------------------

func BenchmarkCodecTagged(b *testing.B) {
	world, _ := benchWorld(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.MarshalTagged(world, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecUntagged(b *testing.B) {
	world, _ := benchWorld(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.MarshalValue(world); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecode decodes the 1000-employee world as one untagged
// image, and a 512-record reply of the read-bulk record shape in 4 witness
// types: once as one tagged image a record, decoded image by image, and
// once as the reply a GET returns, each witness type stated once, decoded
// as the client decodes it. Both read each type image through the codec's
// process-wide type table. In the reply each record has exactly its
// witness's labels, so its witness's record program reads it; reply-wide
// is the same records, each a reply row at its witness less the A9 field,
// so every row misses its program and the generic decoder reads it: the
// price of the fallback. ns/rec is the cost of one record.
func BenchmarkCodecDecode(b *testing.B) {
	b.Run("world", func(b *testing.B) {
		world, _ := benchWorld(1000)
		img, err := codec.MarshalValue(world)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := codec.UnmarshalValue(img); err != nil {
				b.Fatal(err)
			}
		}
	})
	const n = 512
	imgs := make([][]byte, n)
	var w, wide codec.ReplyWriter
	w.Reset(n, 0)
	wide.Reset(n, 0)
	for i := range imgs {
		v := value.Rec("Id", value.Int(int64(i)), "Name", value.String(fmt.Sprintf("row-%07d", i)),
			"A", value.Int(1<<24+int64(i)), fmt.Sprintf("A%d", 1+i%4), value.String("zxcvbnmasdfg"), "A9", value.Float(0.625))
		img, err := codec.AppendTagged(nil, v, nil)
		if err != nil {
			b.Fatal(err)
		}
		imgs[i] = img
		w.Row(v, value.TypeOf(v))
		narrow := v.Copy()
		narrow.Delete("A9")
		wide.Row(v, value.TypeOf(narrow))
	}
	reply, err := w.Fields()
	if err != nil {
		b.Fatal(err)
	}
	wideReply, err := wide.Fields()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"tagged-reply/one-shot", func() error {
			for _, img := range imgs {
				if _, _, err := codec.DecodeTagged(img); err != nil {
					return err
				}
			}
			return nil
		}},
		{"tagged-reply/reply", func() error {
			return codec.DecodeReply(reply, func(int, value.Value, types.Type) {})
		}},
		{"tagged-reply/reply-wide", func() error {
			return codec.DecodeReply(wideReply, func(int, value.Value, types.Type) {})
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}

// ---------------------------------------------------------------------------
// The language end to end
// ---------------------------------------------------------------------------

func BenchmarkLangGetQuery(b *testing.B) {
	in := lang.New(new(bytes.Buffer))
	var src bytes.Buffer
	src.WriteString("type Employee = {Name: String, Empno: Int};\n")
	src.WriteString("let db: List[Dynamic] = [\n")
	for i := 0; i < 200; i++ {
		if i > 0 {
			src.WriteString(",\n")
		}
		if i%2 == 0 {
			fmt.Fprintf(&src, "dynamic {Name = \"E%d\", Empno = %d}", i, i)
		} else {
			fmt.Fprintf(&src, "dynamic {Name = \"P%d\"}", i)
		}
	}
	src.WriteString("];")
	if _, err := in.Run(src.String()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run("length(get[Employee](db))"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLangFib(b *testing.B) {
	in := lang.New(new(bytes.Buffer))
	if _, err := in.Run(
		"let rec fib = fun(n: Int): Int is if n < 2 then n else fib(n-1) + fib(n-2);"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run("fib(18)"); err != nil {
			b.Fatal(err)
		}
	}
}
