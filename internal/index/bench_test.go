// Benchmarks for the E16 grid: the maintained flat extent and the field
// index against the same mixed population the root package's
// BenchmarkGetScan (full scan) and BenchmarkGetExtent measure. The
// packing into (value, witness) pairs is included so the numbers are
// directly comparable with core.Database.Get, which returns such pairs.
package index

import (
	"fmt"
	"math/rand"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// benchSet builds the root bench_test.go fillMixed population (seed 42,
// member 0 always an employee) as an index.Set.
func benchSet(n int, sel float64, defs ...Def) *Set {
	rng := rand.New(rand.NewSource(42))
	ops := make([]Op, n)
	for i := 0; i < n; i++ {
		if i == 0 || rng.Float64() < sel {
			ops[i] = Op{Add: dynamic.Make(employee(fmt.Sprintf("P%06d", i), "Austin", i, "Sales"))}
		} else {
			ops[i] = Op{Add: dynamic.Make(person(fmt.Sprintf("P%06d", i), "Austin"))}
		}
	}
	s, _ := NewSet(defs...).Apply(ops)
	return s
}

// packed mirrors packed, which this package cannot import.
type packed struct {
	Value   value.Value
	Witness types.Type
}

func pack(entries []Entry) []packed {
	out := make([]packed, len(entries))
	for i, e := range entries {
		out[i] = packed{Value: e.Dyn.Value(), Witness: e.Dyn.Type()}
	}
	return out
}

// BenchmarkGetFlatExtent reads one flat seq-ascending slice per type, with
// no per-read re-merge. The root package's BenchmarkGetExtent times the
// same read through core.Database at the same (n, sel) cells.
func BenchmarkGetFlatExtent(b *testing.B) {
	want := types.Intern(employeeT)
	for _, n := range []int{100, 1000, 10000} {
		for _, sel := range []float64{0.01, 0.10, 0.50} {
			b.Run(fmt.Sprintf("n=%d/sel=%.2f", n, sel), func(b *testing.B) {
				s := benchSet(n, sel)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					entries, _ := s.GetEntries(want)
					if got := pack(entries); len(got) == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}

// wideSet is the E16 regime-2 population: every member its own record
// type (a distinct field label), ~1% of members carrying the rare Empno
// field, which is indexed.
func wideSet(n int) *Set {
	ops := make([]Op, n)
	for i := 0; i < n; i++ {
		if i%100 == 0 {
			ops[i] = Op{Add: dynamic.Make(employee(fmt.Sprintf("E%06d", i), "Austin", i, "Sales"))}
		} else {
			ops[i] = Op{Add: dynamic.Make(value.Rec(
				"Name", value.String(fmt.Sprintf("P%06d", i)),
				fmt.Sprintf("X%05d", i), value.Int(int64(i))))}
		}
	}
	s, _ := NewSet(Def{Field: "Empno"}).Apply(ops)
	return s
}

// candidatesGet is the field-index route to {Empno: Int}: the candidate
// prefilter, then a re-check of every candidate.
func candidatesGet(s *Set, want *types.Interned) []packed {
	cands, _ := s.Candidates("Empno")
	var out []packed
	for _, e := range cands {
		if types.SubtypeInterned(e.Dyn.Interned(), want) {
			out = append(out, packed{Value: e.Dyn.Value(), Witness: e.Dyn.Type()})
		}
	}
	return out
}

// BenchmarkGetFieldIndex reads through a field-value index over wideSet,
// where the candidate prefilter skips the types that lack the field.
func BenchmarkGetFieldIndex(b *testing.B) {
	want := types.Intern(types.MustParse("{Empno: Int}"))
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := wideSet(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(candidatesGet(s, want)) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkGetEntriesWideTypes is the many-types regime the field index
// existed for: 10 000 member types, a query on the rare Empno field. A
// memo hit unions the ~100 matching extents without visiting the other
// types, so memo-hit must cost no more than candidates (the field index
// plus its re-check); memo-lookup alone allocates nothing.
func BenchmarkGetEntriesWideTypes(b *testing.B) {
	want := types.Intern(types.MustParse("{Empno: Int}"))
	s := wideSet(10000)
	s.GetEntries(want) // fill the generation's memo
	b.Run("memo-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entries, _ := s.GetEntries(want)
			if len(pack(entries)) == 0 {
				b.Fatal("empty result")
			}
		}
	})
	b.Run("candidates", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(candidatesGet(s, want)) == 0 {
				b.Fatal("empty result")
			}
		}
	})
	b.Run("memo-lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(s.matches(want)) == 0 {
				b.Fatal("no matching types")
			}
		}
	})
}

// BenchmarkApply is the maintenance cost a commit pays: COW-extend the
// published Set with one replaced root (remove + add), with and without a
// field index defined.
func BenchmarkApply(b *testing.B) {
	for _, defs := range []struct {
		name string
		defs []Def
	}{
		{"extents-only", nil},
		{"with-field-index", []Def{{Field: "Empno"}}},
	} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/n=%d", defs.name, n), func(b *testing.B) {
				s := benchSet(n, 0.10, defs.defs...)
				// Swap the same pair back and forth, chaining successors so
				// each iteration honors the single-successor rule exactly
				// like a real commit sequence does.
				a := s.All()[0].Dyn
				r := dynamic.Make(employee("R", "Austin", 1, "Sales"))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op := Op{Remove: a, Add: r}
					if i%2 == 1 {
						op = Op{Remove: r, Add: a}
					}
					next, _ := s.Apply([]Op{op})
					if next.Len() != n {
						b.Fatal("length drifted")
					}
					s = next
				}
			})
		}
	}
}

// BenchmarkWalk reads the members of k extents of 64 members each in seq
// order, interleaved at random: walk is Set.Walk's k-way merge yielding
// each entry in place, tree is the merge Walk replaced — a tree of
// two-way merges into two fresh buffers of the result's size — and then a
// loop over its result. ns/entry is the cost of one member.
func BenchmarkWalk(b *testing.B) {
	want := types.Intern(idT)
	for _, k := range []int{1, 4, 40} {
		s := walkSet(rand.New(rand.NewSource(1)), k, 64*k)
		n, _ := s.MatchStats(want)
		var sink uint64
		yield := func(e Entry) bool {
			sink += e.Seq
			return true
		}
		for _, c := range []struct {
			name string
			read func()
		}{
			{"walk", func() { s.Walk(want, yield) }},
			{"tree", func() {
				var parts [][]Entry
				for _, in := range s.matches(want) {
					parts = append(parts, s.Extent(in).items)
				}
				for _, e := range treeMerge(parts, n) {
					yield(e)
				}
			}},
		} {
			b.Run(fmt.Sprintf("k=%d/%s", k, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.read()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			})
		}
	}
}

// treeMerge is the merge Walk replaced, kept as BenchmarkWalk's baseline:
// global insertion order across seq-ascending parts from a tree of two-way
// merges. The result may alias an input when only one part is non-empty.
func treeMerge(parts [][]Entry, total int) []Entry {
	live, last := 0, -1
	for i := range parts {
		if len(parts[i]) > 0 {
			live, last = live+1, i
		}
	}
	if live == 0 {
		return nil
	}
	if live == 1 {
		return parts[last]
	}
	cur := make([][]Entry, len(parts), len(parts)+1)
	copy(cur, parts)
	buf, alt := make([]Entry, 0, total), make([]Entry, 0, total)
	for len(cur) > 1 {
		if len(cur)%2 == 1 {
			cur = append(cur, nil)
		}
		dst := buf[:0]
		next := cur[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			start := len(dst)
			dst = merge2(dst, cur[i], cur[i+1])
			next = append(next, dst[start:len(dst):len(dst)])
		}
		cur = next
		buf, alt = alt, dst
	}
	return cur[0]
}

func merge2(dst, a, b []Entry) []Entry {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
