// Package pascalr emulates the persistence model of Pascal/R [Schm77], the
// first database programming language the paper surveys and the clearest
// early example of *separating* type, extent and persistence:
//
//	type EmpRel = relation of Employee;
//	var EmpDB = database
//	    Employees: EmpRel
//	end;
//
// A relation type provides extents; persistence is obtained by placing a
// relation in a database, "controlled in the same way that it is for
// files". The model's restriction — and the reason the paper moves past it
// — is that "only relation data types can be placed in a database": no
// nested structure, no arbitrary values, no inheritance.
//
// The package enforces exactly those restrictions, so the contrast with
// PS-algol-style intrinsic persistence (any value persists) is executable:
// see TestOnlyRelationsPersist and the examples in the tests.
package pascalr

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/relation"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Errors returned by Pascal/R database operations.
var (
	// ErrNotRelation reports an attempt to declare a database field whose
	// type is not a relation of flat records — the restriction the paper
	// criticizes.
	ErrNotRelation = errors.New("pascalr: only relation data types can be placed in a database")
	ErrNoField     = errors.New("pascalr: no such database field")
	ErrCorrupt     = errors.New("pascalr: corrupt database file")
)

// RelType is Pascal/R's `relation of T`: the element type must be a flat
// record of atomic attributes (Pascal records of scalars).
type RelType struct {
	Elem *types.Record
}

// NewRelType validates that elem is a legal Pascal/R tuple type: a record
// whose attributes are all scalar (Int, Float, String, Bool).
func NewRelType(elem types.Type) (RelType, error) {
	rec, ok := elem.(*types.Record)
	if !ok {
		return RelType{}, fmt.Errorf("%w: element type %s is not a record", ErrNotRelation, elem)
	}
	for i := 0; i < rec.Len(); i++ {
		f := rec.Field(i)
		switch f.Type.Kind() {
		case types.KindInt, types.KindFloat, types.KindString, types.KindBool:
		default:
			return RelType{}, fmt.Errorf("%w: attribute %q has non-scalar type %s",
				ErrNotRelation, f.Label, f.Type)
		}
	}
	return RelType{Elem: rec}, nil
}

// Database is a Pascal/R database: a fixed set of named relations declared
// up front, persisted wholesale like a file.
type Database struct {
	mu     sync.Mutex
	fs     iofault.FS
	path   string
	schema map[string]RelType
	rels   map[string]*relation.Flat
}

// Declare opens (or creates) a database at path with the given schema: a
// map from field names to `relation of T` types. An existing file is
// loaded; its contents must match the declared schema.
func Declare(path string, schema map[string]RelType) (*Database, error) {
	return DeclareFS(iofault.OS{}, path, schema)
}

// DeclareFS is Declare over an explicit file system — the seam the fault
// tests inject through.
func DeclareFS(fsys iofault.FS, path string, schema map[string]RelType) (*Database, error) {
	db := &Database{fs: fsys, path: path, schema: map[string]RelType{}, rels: map[string]*relation.Flat{}}
	for name, rt := range schema {
		db.schema[name] = rt
		attrs := make([]string, 0, rt.Elem.Len())
		for i := 0; i < rt.Elem.Len(); i++ {
			attrs = append(attrs, rt.Elem.Field(i).Label)
		}
		db.rels[name] = relation.NewFlat(attrs...)
	}
	if _, err := fsys.Stat(path); err == nil {
		if err := db.load(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Rel returns the named relation for querying and updating.
func (db *Database) Rel(name string) (*relation.Flat, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoField, name)
	}
	return r, nil
}

// Insert adds a tuple to the named relation, checking it against the
// declared element type (static typing in spirit; dynamic here because the
// host is Go).
func (db *Database) Insert(name string, tuple *value.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.rels[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoField, name)
	}
	if !value.Conforms(tuple, db.schema[name].Elem) {
		return fmt.Errorf("pascalr: tuple %s does not conform to %s", tuple, db.schema[name].Elem)
	}
	return r.Insert(tuple)
}

// Fields lists the declared relation names in sorted order.
func (db *Database) Fields() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.schema))
	for n := range db.schema {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Save writes the whole database to its file — persistence "controlled in
// the same way that it is for files": whole-value, no sharing, no
// incrementality. The replace is atomic and durable (temp file, fsync,
// rename, directory fsync).
func (db *Database) Save() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return iofault.AtomicWriteFile(db.fs, db.path, func(w io.Writer) error {
		enc := codec.NewEncoder(w) // a stream: the relations go to the atomic file's writer
		names := make([]string, 0, len(db.rels))
		for n := range db.rels {
			names = append(names, n)
		}
		sort.Strings(names)
		if err := enc.Value(value.Int(int64(len(names)))); err != nil {
			return err
		}
		for _, n := range names {
			if err := enc.Value(value.String(n)); err != nil {
				return err
			}
			tuples := db.rels[n].Tuples()
			lst := value.NewList()
			for _, t := range tuples {
				lst.Append(t)
			}
			if err := enc.Value(lst); err != nil {
				return err
			}
		}
		return enc.Flush()
	})
}

// load reads the database file into the declared relations.
func (db *Database) load() error {
	f, err := db.fs.OpenFile(db.path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	dec, err := codec.NewDecoder(f) // a stream: the image is the whole file
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	nv, err := dec.Value()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n, ok := nv.(value.Int)
	if !ok || n < 0 {
		return fmt.Errorf("%w: bad field count", ErrCorrupt)
	}
	for i := int64(0); i < int64(n); i++ {
		namev, err := dec.Value()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		name, ok := namev.(value.String)
		if !ok {
			return fmt.Errorf("%w: field name is %T", ErrCorrupt, namev)
		}
		lv, err := dec.Value()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		lst, ok := lv.(*value.List)
		if !ok {
			return fmt.Errorf("%w: field %q is not a relation image", ErrCorrupt, name)
		}
		rel, ok := db.rels[string(name)]
		if !ok {
			// A field the current schema does not declare: the paper-era
			// behaviour is a mismatch error, like reading a file at the
			// wrong type.
			return fmt.Errorf("%w: stored field %q not in the declared schema", ErrCorrupt, name)
		}
		for _, t := range lst.Elems {
			rec, ok := t.(*value.Record)
			if !ok {
				return fmt.Errorf("%w: tuple is %T", ErrCorrupt, t)
			}
			if !value.Conforms(rec, db.schema[string(name)].Elem) {
				return fmt.Errorf("%w: stored tuple %s does not conform to %s",
					ErrCorrupt, rec, db.schema[string(name)].Elem)
			}
			if err := rel.Insert(rec); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
	}
	return nil
}
