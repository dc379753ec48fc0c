package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// TestStressParallelInsertGetFork hammers one database from three kinds of
// goroutine at once — inserters, getters and forkers — under both
// strategies. Run with -race; the assertions here are the invariants that
// survive interleaving: Get results are always well-formed members, forks
// are consistent prefixes plus nothing foreign, and the final state is
// exactly what was inserted.
func TestStressParallelInsertGetFork(t *testing.T) {
	for _, strat := range []Strategy{StrategyScan, StrategyIndexed} {
		t.Run(strat.String(), func(t *testing.T) {
			db := New(strat)
			const (
				inserters   = 4
				perInserter = 300
				getters     = 4
				forkers     = 2
			)
			var writers, readers sync.WaitGroup
			done := make(chan struct{})
			for g := 0; g < inserters; g++ {
				writers.Add(1)
				go func(g int) {
					defer writers.Done()
					for i := 0; i < perInserter; i++ {
						if i%2 == 0 {
							db.InsertValue(person(fmt.Sprintf("p%d-%d", g, i), "Austin"))
						} else {
							db.InsertValue(employee(fmt.Sprintf("e%d-%d", g, i), "Austin", i, "Sales"))
						}
					}
				}(g)
			}
			for g := 0; g < getters; g++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						// Employee snapshot first: members are never removed
						// from db, so everything in the earlier employee
						// snapshot is still present — and still a person — in
						// the later person snapshot. (The other order is not
						// an invariant: the database may grow arbitrarily
						// between the two calls.)
						es := db.Get(employeeT)
						ps := db.Get(personT)
						if len(es) > len(ps) {
							t.Errorf("Get[Employee] (%d) larger than Get[Person] (%d)", len(es), len(ps))
							return
						}
						for _, p := range ps {
							if !types.Subtype(p.Witness, personT) {
								t.Errorf("Get[Person] returned witness %s", p.Witness)
								return
							}
						}
					}
				}()
			}
			for g := 0; g < forkers; g++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						f := db.Fork()
						n := f.Len()
						if got := len(f.All()); got != n {
							t.Errorf("fork: Len %d but All returned %d", n, got)
							return
						}
						// The fork evolves independently of the parent.
						d := f.InsertValue(person("fork-only", "Nowhere"))
						if !f.Remove(d) {
							t.Errorf("fork lost its own insert")
							return
						}
					}
				}()
			}
			// Wait for the inserters, then stop the readers.
			writers.Wait()
			close(done)
			readers.Wait()

			if got := db.Len(); got != inserters*perInserter {
				t.Fatalf("Len = %d, want %d", got, inserters*perInserter)
			}
			if got := len(db.Get(personT)); got != inserters*perInserter {
				t.Errorf("Get[Person] = %d, want %d", got, inserters*perInserter)
			}
			if got := len(db.Get(employeeT)); got != inserters*perInserter/2 {
				t.Errorf("Get[Employee] = %d, want %d", got, inserters*perInserter/2)
			}
		})
	}
}

// step is one operation of a generated history over a family of forked
// databases: an insert, a remove or a fork of database DB (modulo the
// number alive), with Arg choosing the member kind or the victim.
type step struct {
	Op, DB, Arg uint8
}

// history drives the Get-vs-reference property.
type history []step

// Generate implements quick.Generator.
func (history) Generate(r *rand.Rand, _ int) reflect.Value {
	h := make(history, r.Intn(80))
	for i := range h {
		h[i] = step{Op: uint8(r.Intn(8)), DB: uint8(r.Intn(256)), Arg: uint8(r.Intn(256))}
	}
	return reflect.ValueOf(h)
}

func build(i int, k uint8) value.Value {
	switch k % 4 {
	case 0:
		return person(fmt.Sprintf("p%d", i), "Austin")
	case 1:
		return employee(fmt.Sprintf("e%d", i), "Austin", i, "Sales")
	case 2:
		return student(fmt.Sprintf("s%d", i), "Austin", i)
	default:
		return value.Int(int64(i))
	}
}

var queryTypes = []types.Type{personT, employeeT, studentT, types.Int, types.Top}

// model is one database under test and the reference the test keeps for
// it: its members in insertion order, as a plain slice.
type model struct {
	db  *Database
	ref []*dynamic.Dynamic
}

// check compares every query's Get, All and Len with the reference.
func (m *model) check() error {
	if m.db.Len() != len(m.ref) {
		return fmt.Errorf("Len = %d, reference holds %d", m.db.Len(), len(m.ref))
	}
	if !slices.Equal(m.db.All(), m.ref) {
		return fmt.Errorf("All differs from the reference")
	}
	for _, q := range queryTypes {
		var want []*dynamic.Dynamic
		for _, d := range m.ref {
			if types.Subtype(d.Type(), q) {
				want = append(want, d)
			}
		}
		got := m.db.Get(q)
		if len(got) != len(want) {
			return fmt.Errorf("Get[%s] = %d members, want %d", q, len(got), len(want))
		}
		for i, p := range got {
			if p.Value != want[i].Value() || p.Witness != want[i].Type() {
				return fmt.Errorf("Get[%s][%d] = %s, want %s", q, i, p.Value, want[i].Value())
			}
		}
	}
	return nil
}

// TestQuickGetMatchesReferenceScan is the engine-semantics property: over
// generated histories of Insert, Remove and Fork, every live database's Get
// (both strategies), All and Len match a reference slice the test keeps in
// insertion order, after every step.
func TestQuickGetMatchesReferenceScan(t *testing.T) {
	for _, strat := range []Strategy{StrategyScan, StrategyIndexed} {
		t.Run(strat.String(), func(t *testing.T) {
			f := func(h history) bool {
				live := []*model{{db: New(strat)}}
				for i, s := range h {
					m := live[int(s.DB)%len(live)]
					switch {
					case s.Op < 5:
						d := m.db.InsertValue(build(i, s.Arg))
						m.ref = append(m.ref, d)
					case s.Op < 7:
						if len(m.ref) == 0 {
							if m.db.Remove(dynamic.Make(value.Int(0))) {
								t.Logf("step %d: removed a non-member", i)
								return false
							}
							break
						}
						j := int(s.Arg) % len(m.ref)
						if !m.db.Remove(m.ref[j]) {
							t.Logf("step %d: Remove lost a member", i)
							return false
						}
						m.ref = append(m.ref[:j:j], m.ref[j+1:]...)
					default:
						live = append(live, &model{db: m.db.Fork(), ref: m.ref[:len(m.ref):len(m.ref)]})
					}
					for k, m := range live {
						if err := m.check(); err != nil {
							t.Logf("step %d, database %d: %v", i, k, err)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestForkIsolationAfterCOW verifies the copy-on-write boundary: appends on
// either side of a fork never leak into the other, even when the shared
// backing arrays had spare capacity.
func TestForkIsolationAfterCOW(t *testing.T) {
	db := New(StrategyIndexed)
	var ds []*dynamic.Dynamic
	for i := 0; i < 200; i++ {
		ds = append(ds, db.InsertValue(person(fmt.Sprintf("p%d", i), "Austin")))
	}
	f := db.Fork()

	db.InsertValue(person("parent-only", "Austin"))
	f.InsertValue(employee("fork-only", "Austin", 1, "Sales"))
	f.Remove(ds[0])

	if got := db.Len(); got != 201 {
		t.Errorf("parent Len = %d, want 201", got)
	}
	if got := f.Len(); got != 200 {
		t.Errorf("fork Len = %d, want 200", got)
	}
	for _, p := range db.Get(employeeT) {
		if p.Value.(*value.Record).MustGet("Name") == value.String("fork-only") {
			t.Errorf("fork insert leaked into parent")
		}
	}
	if got := len(f.Get(personT)); got != 200 {
		t.Errorf("fork Get[Person] = %d, want 200", got)
	}
	if got := len(db.Get(personT)); got != 201 {
		t.Errorf("parent Get[Person] = %d, want 201", got)
	}
}

// TestForkSidesAppendToOneExtent is the deterministic fork check: after a
// Fork, both sides append to the extent they share — which has spare
// capacity, five members in an array grown for eight — and each removes a
// different shared member. Each side must then read back exactly the slice
// the test kept for it.
func TestForkSidesAppendToOneExtent(t *testing.T) {
	forBothStrategies(t, func(t *testing.T, db *Database) {
		var shared []*dynamic.Dynamic
		for i := 0; i < 5; i++ {
			shared = append(shared, db.InsertValue(person(fmt.Sprintf("p%d", i), "Austin")))
		}
		fork := db.Fork()
		parent := &model{db: db, ref: append([]*dynamic.Dynamic(nil), shared...)}
		child := &model{db: fork, ref: append([]*dynamic.Dynamic(nil), shared...)}

		parent.ref = append(parent.ref, db.InsertValue(person("parent-only", "Austin")))
		child.ref = append(child.ref, fork.InsertValue(person("fork-only", "Austin")))
		sides := []struct {
			name   string
			m      *model
			victim int
		}{{"parent", parent, 1}, {"fork", child, 3}}
		for _, s := range sides {
			if !s.m.db.Remove(shared[s.victim]) {
				t.Fatalf("%s: Remove(shared[%d]) reported absence", s.name, s.victim)
			}
			s.m.ref = append(s.m.ref[:s.victim:s.victim], s.m.ref[s.victim+1:]...)
		}
		for _, s := range sides {
			if err := s.m.check(); err != nil {
				t.Errorf("%s: %v", s.name, err)
			}
		}
	})
}
