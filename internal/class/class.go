// Package class implements the *baseline* the paper argues against needing:
// explicit class constructs in the style of Taxis, Adaplex and Galileo,
// where a class couples a record type with a maintained extent and the
// subclass hierarchy is declared rather than derived.
//
//   - Taxis: VARIABLE_CLASS (with an extent defined by explicit insertion
//     and deletion) vs AGGREGATE_CLASS (a plain record type); classes are
//     themselves instances of meta-classes, giving a three-level instance
//     hierarchy.
//   - Adaplex: entity types with "include Employee in Person" directives;
//     creating an Employee instance also creates a Person instance.
//   - Galileo: a class is built on a separately declared type.
//
// The package also models the paper's two instance-hierarchy scenarios (the
// university parking lot and the priced products) through class-level
// attributes: a class is simultaneously an object whose fields live on the
// class itself.
//
// Object extension (Specialize) migrates an object *down* the hierarchy in
// place — turning a Person into an Employee by adding information, the
// operation Amber cannot express without delete-and-readd.
package class

import (
	"errors"
	"fmt"
	"sync"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Kind distinguishes Taxis's two meta-classes.
type Kind int

const (
	// VariableClass has an extent maintained by insertion and deletion.
	VariableClass Kind = iota
	// AggregateClass is a pure record type with no extent, like a record
	// type in an ordinary programming language.
	AggregateClass
)

// String returns the kind's Taxis-style name.
func (k Kind) String() string {
	if k == AggregateClass {
		return "AGGREGATE_CLASS"
	}
	return "VARIABLE_CLASS"
}

// Errors reported by schema operations.
var (
	ErrDuplicateClass = errors.New("class: class already declared")
	ErrUnknownClass   = errors.New("class: unknown class")
	ErrNotSubtype     = errors.New("class: class type is not a subtype of its superclass")
	ErrNotConforming  = errors.New("class: record does not conform to class type")
	ErrNoExtent       = errors.New("class: aggregate classes have no extent")
	ErrNotSubclass    = errors.New("class: target is not a subclass of the object's class")
)

// Object is a class instance: a mutable record with identity, tracked by
// the extents of its class and all superclasses.
type Object struct {
	rec  *value.Record
	cls  *Class // most specific class
	mu   sync.Mutex
	dead bool
}

// Record returns the object's underlying record (shared, mutable).
func (o *Object) Record() *value.Record { return o.rec }

// Class returns the object's most specific class.
func (o *Object) Class() *Class {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cls
}

// String renders the object with its class.
func (o *Object) String() string { return fmt.Sprintf("%s %s", o.Class().Name(), o.rec) }

// Class is a declared class: a name, a kind, a record type, declared
// superclasses, optional class-level attributes, and (for variable classes)
// an extent.
type Class struct {
	name   string
	kind   Kind
	typ    types.Type
	in     *types.Interned // canonical handle of typ
	supers []*Class
	attrs  *value.Record // class-level attributes (instance-hierarchy use)
	extent []*Object
	schema *Schema

	// Instance hierarchy (see meta.go): the meta-class this class is an
	// instance of, and the classes that are instances of this one.
	meta           *Class
	classInstances []*Class
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Kind returns the class kind.
func (c *Class) Kind() Kind { return c.kind }

// Type returns the record type associated with the class.
func (c *Class) Type() types.Type { return c.typ }

// Interned returns the canonical handle of the class type, so conformance
// checks against the class are pointer-keyed cache hits.
func (c *Class) Interned() *types.Interned { return c.in }

// IsSubclassOf reports whether c is (transitively, reflexively) a subclass
// of s.
func (c *Class) IsSubclassOf(s *Class) bool {
	if c == s {
		return true
	}
	for _, up := range c.supers {
		if up.IsSubclassOf(s) {
			return true
		}
	}
	return false
}

// Schema is a set of class declarations with instance management. Safe for
// concurrent use.
type Schema struct {
	mu      sync.RWMutex
	classes map[string]*Class
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return &Schema{classes: map[string]*Class{}} }

// Declare adds a class. The class type must be a structural subtype of
// every declared superclass's type — the constraint Taxis's "isa" enforces
// by attribute inheritance. Superclasses must be variable classes if the
// new class is (extent inclusion must be maintainable).
func (s *Schema) Declare(name string, kind Kind, typ types.Type, isa ...string) (*Class, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.classes[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateClass, name)
	}
	in := types.Intern(typ)
	var supers []*Class
	for _, up := range isa {
		sc, ok := s.classes[up]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownClass, up)
		}
		if !types.SubtypeInterned(in, sc.in) {
			return nil, fmt.Errorf("%w: %s ≤ %s fails", ErrNotSubtype, typ, sc.typ)
		}
		supers = append(supers, sc)
	}
	c := &Class{name: name, kind: kind, typ: typ, in: in, supers: supers, schema: s}
	s.classes[name] = c
	return c, nil
}

// MustDeclare is Declare but panics on error; for fixtures and examples.
func (s *Schema) MustDeclare(name string, kind Kind, typeSrc string, isa ...string) *Class {
	c, err := s.Declare(name, kind, types.MustParse(typeSrc), isa...)
	if err != nil {
		panic(err)
	}
	return c
}

// Lookup returns the named class.
func (s *Schema) Lookup(name string) (*Class, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.classes[name]
	return c, ok
}

// NewObject creates an instance of the class from rec, which must conform
// to the class type. Adaplex semantics: the object enters the extent of the
// class and of every (transitive) superclass.
func (s *Schema) NewObject(c *Class, rec *value.Record) (*Object, error) {
	if c.kind != VariableClass {
		return nil, fmt.Errorf("%w: %q", ErrNoExtent, c.name)
	}
	if !value.ConformsInterned(rec, c.in) {
		return nil, fmt.Errorf("%w: %s : %s", ErrNotConforming, rec, c.typ)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := &Object{rec: rec, cls: c}
	for up := range ancestry(c) {
		up.extent = append(up.extent, o)
	}
	return o, nil
}

// ancestry returns the set {c} ∪ all transitive superclasses.
func ancestry(c *Class) map[*Class]bool {
	out := map[*Class]bool{}
	var walk func(*Class)
	walk = func(x *Class) {
		if out[x] {
			return
		}
		out[x] = true
		for _, up := range x.supers {
			walk(up)
		}
	}
	walk(c)
	return out
}

// Extent returns the members of the class's extent, in insertion order.
// By construction every instance of a subclass is present — "the inclusion
// relationships among the extents follow directly from the explicit
// hierarchy of entity types".
func (c *Class) Extent() ([]*Object, error) {
	if c.kind != VariableClass {
		return nil, fmt.Errorf("%w: %q", ErrNoExtent, c.name)
	}
	c.schema.mu.RLock()
	defer c.schema.mu.RUnlock()
	return append([]*Object(nil), c.extent...), nil
}

// Specialize migrates o down the hierarchy to sub, which must be a subclass
// of o's current class, merging extra into the object's record (a value
// join — "adding information"). The object keeps its identity: references
// held elsewhere observe the new fields. This is what Adaplex, Galileo and
// Taxis support and Amber does not.
func (s *Schema) Specialize(o *Object, sub *Class, extra *value.Record) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !sub.IsSubclassOf(o.cls) {
		return fmt.Errorf("%w: %s is not below %s", ErrNotSubclass, sub.name, o.cls.name)
	}
	// Merge on a copy first so a failed join or conformance check leaves
	// the object untouched.
	merged, err := value.Join(o.rec.Copy(), extra)
	if err != nil {
		return err
	}
	if !value.ConformsInterned(merged, sub.in) {
		return fmt.Errorf("%w: %s : %s", ErrNotConforming, merged, sub.typ)
	}
	// Commit: write the new fields into the original record in place.
	extra.Each(func(l string, v value.Value) {
		if prev, ok := o.rec.Get(l); ok {
			j, _ := value.Join(prev, v) // cannot fail: checked on the copy
			o.rec.Set(l, j)
		} else {
			o.rec.Set(l, v)
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	was := ancestry(o.cls)
	for up := range ancestry(sub) {
		if !was[up] {
			up.extent = append(up.extent, o)
		}
	}
	o.cls = sub
	return nil
}

// Delete removes the object from every extent. The object is dead
// afterwards; deleting twice reports false.
func (s *Schema) Delete(o *Object) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return false
	}
	o.dead = true
	s.mu.Lock()
	defer s.mu.Unlock()
	for up := range ancestry(o.cls) {
		for i, m := range up.extent {
			if m == o {
				up.extent = append(up.extent[:i], up.extent[i+1:]...)
				break
			}
		}
	}
	return true
}
