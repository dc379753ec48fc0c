// Package core implements the paper's primary contribution: a database that
// is nothing but a collection of dynamic values, together with a single
// generic extraction function
//
//	Get : forall t . Database -> List[exists t' <= t . t']
//
// that returns every object in the database whose runtime type is a subtype
// of the requested type. Extents are therefore *derived from the type
// hierarchy* instead of being tied to a distinguished class construct:
// Get[Person] always contains Get[Employee], with no class declarations at
// all. Persistence is provided separately (package persist), completing the
// separation of type, extent and persistence the paper argues for.
//
// The paper discusses the efficiency of this design: a naive implementation
// "has to traverse the whole database" and "check the structure of each
// value". The package provides both that naive strategy (StrategyScan) and
// the remedy the paper sketches — "a set of (statically) typed lists with
// appropriate structure sharing" (StrategyIndexed). The two are
// interchangeable behind the same Get, which is the ablation of experiment
// E2.
//
// # Engine
//
// A Database is a handle on one index.Set, the same membership structure
// the server answers every GET from: one maintained extent per member
// type, and a subtype query is the union of the extents whose type
// conforms. Writers are serialised by a mutex and publish the successor Set
// through an atomic pointer; readers load the pointer and take no lock.
// See docs/ARCHITECTURE.md.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Packed is an element of Get's result list: a value packaged with the
// witness type at which it lives in the database. It is the concrete
// rendering of the existential type exists t' <= t . t' — "all we know is
// that we can perform on it any operation associated with the type t".
type Packed struct {
	Value   value.Value
	Witness types.Type
}

// String renders the package with its witness.
func (p Packed) String() string {
	return fmt.Sprintf("pack(%s : %s)", p.Value, p.Witness)
}

// Open reveals the packed value at the requested type; it fails unless the
// witness is a subtype of want. This mirrors opening an existential package
// at its bound.
func (p Packed) Open(want types.Type) (value.Value, error) {
	if !types.Subtype(p.Witness, want) {
		return nil, &dynamic.CoerceError{Have: p.Witness, Want: want}
	}
	return p.Value, nil
}

// Strategy selects how Get locates objects.
type Strategy int

const (
	// StrategyScan is the paper's first solution: traverse the whole
	// database interrogating each dynamic's type. Cost ∝ database size.
	StrategyScan Strategy = iota
	// StrategyIndexed reads the maintained per-type extents: inserts keep
	// them current and Get costs ∝ result size.
	StrategyIndexed
)

// String returns the strategy's name.
func (s Strategy) String() string {
	switch s {
	case StrategyScan:
		return "scan"
	case StrategyIndexed:
		return "indexed"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Database is an unconstrained, heterogeneous collection of dynamic values
// — "we can put any dynamic value in it". Order of insertion is preserved.
// A Database is safe for concurrent use; Get never blocks on writers.
type Database struct {
	strategy Strategy
	mu       sync.Mutex // serialises writers
	set      atomic.Pointer[index.Set]
}

// New returns an empty database using the given strategy.
func New(strategy Strategy) *Database {
	db := &Database{strategy: strategy}
	db.set.Store(index.NewSet())
	return db
}

// GetType is the Cardelli–Wegner type of the generic Get function itself,
//
//	forall t . List[Dynamic] -> List[exists u <= t . u]
//
// which the paper writes ∀t. Database → List[∃t' ≤ t]. It is exported so
// callers (and tests) can exhibit that the extraction function has a single
// static type for every instantiation.
var GetType = types.NewForAll("t", nil,
	types.NewFunc(
		[]types.Type{types.NewList(types.Dynamic)},
		types.NewList(types.NewExists("u", types.NewVar("t"), types.NewVar("u"))),
	))

// Len reports the number of objects in the database.
func (db *Database) Len() int { return db.set.Load().Len() }

// apply publishes the successor Set with op applied, reporting whether op
// changed the membership.
func (db *Database) apply(op index.Op) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	next, st := db.set.Load().Apply([]index.Op{op})
	if st.EntriesTouched == 0 {
		return false
	}
	db.set.Store(next)
	return true
}

// Insert adds a dynamic value to the database.
func (db *Database) Insert(d *dynamic.Dynamic) { db.apply(index.Op{Add: d}) }

// InsertValue wraps v in a dynamic at its most specific type and inserts it.
// It returns the dynamic so callers can later Remove it.
func (db *Database) InsertValue(v value.Value) *dynamic.Dynamic {
	d := dynamic.Make(v)
	db.Insert(d)
	return d
}

// Remove deletes the given dynamic (by identity), reporting whether it was
// present.
func (db *Database) Remove(d *dynamic.Dynamic) bool { return db.apply(index.Op{Remove: d}) }

// All returns the database contents in insertion order.
func (db *Database) All() []*dynamic.Dynamic {
	es := db.set.Load().All()
	out := make([]*dynamic.Dynamic, len(es))
	for i, e := range es {
		out[i] = e.Dyn
	}
	return out
}

// entries returns the members whose type is a subtype of t, in insertion
// order, by the database's strategy. The result must not be mutated.
func (db *Database) entries(t types.Type) []index.Entry {
	s, want := db.set.Load(), types.Intern(t)
	if db.strategy == StrategyIndexed {
		es, _ := s.GetEntries(want)
		return es
	}
	// The naive scan: every member, one cached subtype check per member.
	var out []index.Entry
	memo := map[*types.Interned]bool{}
	for _, e := range s.All() {
		in := e.Dyn.Interned()
		ok, seen := memo[in]
		if !seen {
			ok = types.SubtypeInterned(in, want)
			memo[in] = ok
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// Get is the generic extraction function: it returns, in insertion order,
// an existential package for every object whose type is a subtype of t.
// Get[Employee] ⊆ Get[Person] holds for every database because Employee ≤
// Person — the class hierarchy is derived from the type hierarchy.
func (db *Database) Get(t types.Type) []Packed {
	es := db.entries(t)
	out := make([]Packed, len(es))
	for i, e := range es {
		out[i] = Packed{Value: e.Dyn.Value(), Witness: e.Dyn.Type()}
	}
	return out
}

// GetValues is Get without the witnesses, for callers that only need the
// values.
func (db *Database) GetValues(t types.Type) []value.Value {
	es := db.entries(t)
	out := make([]value.Value, len(es))
	for i, e := range es {
		out[i] = e.Dyn.Value()
	}
	return out
}

// Fork returns an independent database with the same contents. The two
// databases share the member objects (structure sharing) but their
// memberships evolve separately — this supports the paper's case for
// multiple extents per type: "one may want to experiment with hypothetical
// states of the database", which a unique type-coupled extent cannot
// express. Both sides continue from one index.Set.Fork, so Fork costs
// O(member types) and the first write to an extent on either side copies
// that extent.
func (db *Database) Fork() *Database {
	db.mu.Lock()
	defer db.mu.Unlock()
	f := db.set.Load().Fork()
	db.set.Store(f)
	out := &Database{strategy: db.strategy}
	out.set.Store(f)
	return out
}
