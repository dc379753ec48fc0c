// Package dbpl is a Go realization of Buneman & Atkinson's "Inheritance and
// Persistence in Database Programming Languages" (SIGMOD 1986): a database
// programming toolkit in which *type*, *extent* and *persistence* are three
// separate, freely combinable notions.
//
//   - Types (structural records with subtyping, bounded quantification,
//     Dynamic) live in a runtime-modeled type system; values carry an
//     information ordering ⊑ with a partial join ⊔.
//   - Extents are derived, not declared: a Database is a heterogeneous
//     collection of dynamics and Get(db, T) extracts everything whose type
//     is a subtype of T — the paper's Get : ∀t. Database → List[∃t'≤t].
//   - Persistence comes in the paper's three flavours — all-or-nothing
//     snapshots, replicating extern/intern, and intrinsic reachability-based
//     stores with commit and subtype-driven schema evolution.
//
// Generalized relations (cochains of partial records, Figure 1's join),
// classical 1NF relations, functional-dependency theory, Taxis/Adaplex-style
// class constructs, and a complete statically typed database programming
// language (package lang, runnable via cmd/dbpl) are built on the same
// substrate. This package is the curated public surface; examples/ shows it
// in use, and DESIGN.md maps every subsystem to the paper.
package dbpl

import (
	"io"

	"dbpl/internal/class"
	"dbpl/internal/core"
	"dbpl/internal/dynamic"
	"dbpl/internal/fd"
	"dbpl/internal/lang"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/replicating"
	"dbpl/internal/persist/snapshot"
	"dbpl/internal/relation"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

// Type is a structural type: records, variants, lists, sets, functions,
// Dynamic, bounded quantifiers and recursive types.
type Type = types.Type

// Basic types.
var (
	Int     = types.Int
	Float   = types.Float
	String  = types.String
	Bool    = types.Bool
	Unit    = types.Unit
	Top     = types.Top
	Bottom  = types.Bottom
	Dyn     = types.Dynamic
	TypeRep = types.TypeRep
)

// ParseType reads a type from its concrete syntax, e.g.
// "{Name: String, Age: Int}" or "forall t . List[t] -> Int".
func ParseType(src string) (Type, error) { return types.Parse(src) }

// MustParseType is ParseType but panics on error.
func MustParseType(src string) Type { return types.MustParse(src) }

// Subtype reports s ≤ t.
func Subtype(s, t Type) bool { return types.Subtype(s, t) }

// InternedType is the canonical handle of an equivalence class of types:
// alpha-equivalent types intern to the same handle, so equivalence is
// pointer comparison and repeated subtype checks are pointer-keyed cache
// hits. The maintained extents are keyed by it.
type InternedType = types.Interned

// InternType returns the canonical handle for t.
func InternType(t Type) *InternedType { return types.Intern(t) }

// EqualTypes reports type equivalence (mutual subtyping).
func EqualTypes(s, t Type) bool { return types.Equal(s, t) }

// JoinTypes returns the least upper bound of two types.
func JoinTypes(s, t Type) Type { return types.Join(s, t) }

// MeetTypes returns the greatest lower bound and whether it is inhabited.
func MeetTypes(s, t Type) (Type, bool) { return types.Meet(s, t) }

// Consistent reports whether two types share an inhabited subtype — the
// paper's condition for schema enrichment at a persistent handle.
func Consistent(s, t Type) bool { return types.Consistent(s, t) }

// ---------------------------------------------------------------------------
// Values and object-level inheritance
// ---------------------------------------------------------------------------

// Value is an object in the database domain.
type Value = value.Value

// Record is a mutable record object with identity.
type Record = value.Record

// Rec builds a record from label/value pairs:
// Rec("Name", Str("J Doe"), "Age", IntV(30)).
func Rec(pairs ...any) *Record { return value.Rec(pairs...) }

// IntV, FloatV, Str and BoolV build atoms.
func IntV(v int64) Value     { return value.Int(v) }
func FloatV(v float64) Value { return value.Float(v) }
func Str(v string) Value     { return value.String(v) }
func BoolV(v bool) Value     { return value.Bool(v) }

// NewList builds a list value.
func NewList(elems ...Value) *value.List { return value.NewList(elems...) }

// NewSet builds a set value (deduplicated by structural equality).
func NewSet(elems ...Value) *value.Set { return value.NewSet(elems...) }

// TypeOf returns a value's most specific type.
func TypeOf(v Value) Type { return value.TypeOf(v) }

// Conforms reports whether v can be used at type t.
func Conforms(v Value, t Type) bool { return value.Conforms(v, t) }

// Leq is the information ordering o ⊑ o': o' contains at least the
// information of o.
func Leq(o, op Value) bool { return value.Leq(o, op) }

// JoinValues is the paper's ⊔: the least object containing the information
// of both, or an error if they conflict on a common component.
func JoinValues(a, b Value) (Value, error) { return value.Join(a, b) }

// EqualValues reports deep structural equality.
func EqualValues(a, b Value) bool { return value.Equal(a, b) }

// ---------------------------------------------------------------------------
// Dynamics
// ---------------------------------------------------------------------------

// Dynamic is a value paired with its type (Amber's Dynamic).
type Dynamic = dynamic.Dynamic

// MakeDynamic pairs a value with its most specific type.
func MakeDynamic(v Value) *Dynamic { return dynamic.Make(v) }

// MakeDynamicAt pairs a value with a declared (super)type.
func MakeDynamicAt(v Value, t Type) (*Dynamic, error) { return dynamic.MakeAt(v, t) }

// ---------------------------------------------------------------------------
// The database and the generic Get
// ---------------------------------------------------------------------------

// Database is a heterogeneous collection of dynamics with the generic Get.
type Database = core.Database

// Packed is an element of Get's result: value + witness type, the concrete
// form of the existential ∃t'≤t.
type Packed = core.Packed

// Get strategies (the E2 ablation).
const (
	StrategyScan    = core.StrategyScan
	StrategyIndexed = core.StrategyIndexed
)

// NewDatabase returns an empty database using the given Get strategy.
func NewDatabase(s core.Strategy) *Database { return core.New(s) }

// GetType is the Cardelli–Wegner type of Get itself:
// forall t . List[Dynamic] -> List[exists u <= t . u].
var GetType = core.GetType

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

// Relation is a generalized relation: a cochain of partial records under ⊑.
type Relation = relation.Relation

// Flat is a classical first-normal-form relation.
type Flat = relation.Flat

// NewRelation returns a generalized relation holding the maximal objects
// among objects: the ones inserting them in order with subsumption would
// keep, in input order, the first of duplicates winning. Like every
// Relation it is not safe for concurrent use.
func NewRelation(objects ...Value) *Relation { return relation.New(objects...) }

// NewKeyedRelation returns a relation with key attributes; keys forbid
// comparable members.
func NewKeyedRelation(key ...string) *Relation { return relation.NewKeyed(key...) }

// JoinRelations is the generalized natural join of the paper's Figure 1.
func JoinRelations(r, s *Relation) *Relation { return relation.Join(r, s) }

// JoinRelationsFast is JoinRelations with hash partitioning on a shared
// atomic attribute; identical results, faster on large inputs.
func JoinRelationsFast(r, s *Relation) *Relation { return relation.JoinFast(r, s) }

// Project restricts members to the given labels.
func Project(r *Relation, labels ...string) *Relation { return relation.Project(r, labels...) }

// ExtractByType filters a relation to the members whose type is a subtype
// of t — the paper's "join with the type seen as a very large relation".
func ExtractByType(r *Relation, t Type) *Relation { return relation.ExtractByType(r, t) }

// NewFlat returns an empty 1NF relation over the given attributes.
func NewFlat(attrs ...string) *Flat { return relation.NewFlat(attrs...) }

// Aggregate is a per-group fold for GroupBy; build with Count, CountAll,
// Sum, Min and Max.
type Aggregate = relation.Aggregate

// Aggregate constructors.
var (
	Count    = relation.Count
	CountAll = relation.CountAll
	Sum      = relation.Sum
	Min      = relation.Min
	Max      = relation.Max
)

// GroupBy groups a generalized relation by attributes and applies the
// aggregates within each group.
func GroupBy(r *Relation, by []string, aggs ...Aggregate) (*Relation, error) {
	return relation.GroupBy(r, by, aggs...)
}

// FD is a functional dependency; Dep builds one from comma-separated
// attribute lists.
type FD = fd.FD

// Dep builds the dependency from → to: Dep("Name", "Dept,Floor").
func Dep(from, to string) FD { return fd.Dep(from, to) }

// FDImplies reports whether a set of dependencies implies another.
func FDImplies(fds []FD, f FD) bool { return fd.Implies(fds, f) }

// ---------------------------------------------------------------------------
// Classes (the constructs the paper shows to be derivable)
// ---------------------------------------------------------------------------

// Schema is a set of Taxis/Adaplex-style class declarations.
type Schema = class.Schema

// Class is a declared class; Object is one of its instances.
type (
	Class  = class.Class
	Object = class.Object
)

// Class kinds.
const (
	VariableClass  = class.VariableClass
	AggregateClass = class.AggregateClass
)

// NewSchema returns an empty class schema.
func NewSchema() *Schema { return class.NewSchema() }

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

// Store is an intrinsically persistent store: named handles, reachability,
// commit/abort, garbage collection and schema evolution.
type Store = intrinsic.Store

// Namespace is an isolated view of a Store with controlled sharing between
// namespaces (the paper's multiple-name-space requirement).
type Namespace = intrinsic.Namespace

// OpenStore opens (or creates) an intrinsic store at path.
func OpenStore(path string) (*Store, error) { return intrinsic.Open(path) }

// ReplicatingStore is an extern/intern store of replicated images.
type ReplicatingStore = replicating.Store

// OpenReplicating opens (or creates) a replicating store rooted at dir.
func OpenReplicating(dir string) (*ReplicatingStore, error) { return replicating.Open(dir) }

// Environment is a whole-session image for all-or-nothing persistence.
type Environment = snapshot.Environment

// NewEnvironment returns an empty environment; use snapshot Save/Resume via
// SaveEnvironment and ResumeEnvironment.
func NewEnvironment() *Environment { return snapshot.NewEnvironment() }

// SaveEnvironment writes a whole-session snapshot.
func SaveEnvironment(w io.Writer, e *Environment) error { return snapshot.Save(w, e) }

// ResumeEnvironment reads a snapshot written by SaveEnvironment.
func ResumeEnvironment(r io.Reader) (*Environment, error) { return snapshot.Resume(r) }

// ---------------------------------------------------------------------------
// The language
// ---------------------------------------------------------------------------

// Interp is a session of the database programming language.
type Interp = lang.Interp

// NewInterp returns a fresh interpreter writing program output to out
// (nil means standard output). Attach stores via the Replicating and
// Intrinsic fields to enable extern/intern and persistent declarations.
func NewInterp(out io.Writer) *Interp { return lang.New(out) }
